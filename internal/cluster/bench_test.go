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

// BenchmarkPeerFrame measures one get-resp frame through the codec: encode
// is writeFrame into a discarding writer, decode is readFrame plus the meta
// decode a fetching node performs.
func BenchmarkPeerFrame(b *testing.B) {
	m, body := realisticGetResp()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeFrame(io.Discard, msgGetResp, m, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		frame := encodeFrame(b, msgGetResp, m, body)
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
			var got getRespMeta
			if err := decodeMeta(typ, raw, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
