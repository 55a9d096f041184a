package cluster

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

// realisticGetResp is a RUBiS viewItem page as a fetch returns it: four
// dependencies, a 3-node applied vector and a 3 KB body.
func realisticGetResp() (*getRespMeta, []byte) {
	return &getRespMeta{
		Found:       true,
		ContentType: "text/html; charset=utf-8",
		Deps: []analysis.Query{
			{SQL: "SELECT * FROM items WHERE id = ?", Args: []memdb.Value{int64(4711)}},
			{SQL: "SELECT nickname FROM users WHERE id = ?", Args: []memdb.Value{int64(815)}},
			{SQL: "SELECT COUNT(*) FROM bids WHERE item_id = ?", Args: []memdb.Value{int64(4711)}},
			{SQL: "SELECT MAX(bid) FROM bids WHERE item_id = ?", Args: []memdb.Value{int64(4711)}},
		},
		Applied: map[string]uint64{"127.0.0.1:19080": 1289, "127.0.0.1:19081": 1301, "127.0.0.1:19082": 1277},
	}, []byte(strings.Repeat("<tr><td>bid</td></tr>", 3072/21))
}

// realisticInv is a RUBiS storeBid request's invalidation frame: the bid
// INSERT and the item UPDATE it is followed by, as one broadcast.
func realisticInv() *invMeta {
	return &invMeta{
		Captures: []analysis.WriteCapture{
			{Query: analysis.Query{
				SQL:  "INSERT INTO bids (user_id, item_id, qty, bid, max_bid, date) VALUES (?, ?, ?, ?, ?, ?)",
				Args: []memdb.Value{int64(815), int64(4711), int64(1), 12.5, 15.0, "2026-01-02 03:04:05"},
			}, AutoID: 90210, HasAutoID: true},
			{Query: analysis.Query{
				SQL:  "UPDATE items SET nb_of_bids = nb_of_bids + 1, max_bid = ? WHERE id = ?",
				Args: []memdb.Value{12.5, int64(4711)},
			}},
		},
		Origin: "127.0.0.1:19080",
		Seq:    1290,
	}
}

// BenchmarkPeerFrame measures peer frames through the codec: encode is
// writeFrame into a discarding writer, decode is readFrame plus the meta
// decode the receiving node performs. get-resp is a fetch answer, inv-two
// a write request's two-capture invalidation.
func BenchmarkPeerFrame(b *testing.B) {
	m, body := realisticGetResp()
	frames := []struct {
		name  string
		typ   byte
		m     meta
		body  []byte
		empty func() meta
	}{
		{"get-resp", msgGetResp, m, body, func() meta { return &getRespMeta{} }},
		{"inv-two", msgInv, realisticInv(), nil, func() meta { return &invMeta{} }},
	}
	for _, f := range frames {
		b.Run(f.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := writeFrame(io.Discard, f.typ, f.m, f.body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(f.name+"/decode", func(b *testing.B) {
			frame := encodeFrame(b, f.typ, f.m, f.body)
			src := bytes.NewReader(frame)
			r := frameReader(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(frame)
				r.Reset(src)
				typ, raw, _, err := readFrame(r)
				if err != nil {
					b.Fatal(err)
				}
				if err := decodeMeta(typ, raw, f.empty()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
