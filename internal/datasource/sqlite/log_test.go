package sqlite

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"autowebcache/internal/codec"
	"autowebcache/internal/datasource"
	"autowebcache/internal/memdb"
)

// storeBid is the statement the bidding mix logs most: RUBiS StoreBid's
// six-argument INSERT.
const storeBid = "INSERT INTO bids (user_id, item_id, qty, bid, max_bid, date) VALUES (?, ?, ?, ?, ?, ?)"

var storeBidArgs = []datasource.Value{int64(1234), int64(56789), int64(1), 125.0, 130.0, "2026-10-16 12:34:56"}

// replayFile replays a log file into a fresh replica, as the first
// statement of a process does.
func replayFile(t *testing.T, path string) (d *fileDB, torn bool, err error) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d = &fileDB{path: path, f: f}
	d.mem.Store(memdb.New())
	torn, err = d.replayLocked(context.Background())
	return d, torn, err
}

// FuzzReplayLog replays arbitrary bytes as a statement log, alone and after
// a valid log. Replay never panics, never applies past the end of the file,
// and garbage after a valid log never undoes what it applied.
func FuzzReplayLog(f *testing.F) {
	valid := appendStatement(nil, "CREATE TABLE t (id INTEGER)", nil)
	valid = appendStatement(valid, "INSERT INTO t (id) VALUES (?)", []datasource.Value{int64(7)})
	frame := appendStatement(nil, storeBid, storeBidArgs)
	badSum := append([]byte(nil), frame...)
	badSum[len(badSum)-1] ^= 1
	f.Add([]byte{})
	f.Add(frame)
	f.Add(frame[:len(frame)-3])
	f.Add(badSum)
	f.Add(append(badSum, frame...))
	f.Add([]byte(`{"sql":"INSERT INTO t (id) VALUES (?)","args":[{"i":"1"}]}` + "\n"))
	path := filepath.Join(f.TempDir(), "fuzz.db")

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, log := range [][]byte{data, append(valid[:len(valid):len(valid)], data...)} {
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			d, torn, err := replayFile(t, path)
			applied := d.applied.Load()
			if applied > int64(len(log)) || (torn && err != nil) {
				t.Fatalf("replay of %d bytes: applied %d, torn %v, err %v", len(log), applied, torn, err)
			}
			if len(log) > len(data) {
				rows, qerr := d.mem.Load().Query(context.Background(), "SELECT COUNT(*) FROM t WHERE id = 7")
				if applied < int64(len(valid)) || qerr != nil || rows.Int(0, 0) == 0 {
					t.Fatalf("garbage after a valid log undid it: applied %d of %d, %v", applied, len(valid), qerr)
				}
			}
		}
	})
}

var sink []byte

// BenchmarkStatementLog measures what one logged StoreBid INSERT costs the
// log itself: encoding its frame (append) and reading and decoding it back
// (replay), without the memdb execution either side runs.
func BenchmarkStatementLog(b *testing.B) {
	frame := appendStatement(nil, storeBid, storeBidArgs)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendStatement(buf[:0], storeBid, storeBidArgs)
		}
		sink = buf
	})
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		r := bytes.NewReader(frame)
		var payload []byte
		for i := 0; i < b.N; i++ {
			r.Reset(frame)
			var err error
			if payload, err = codec.ReadFrame(r, payload); err != nil {
				b.Fatal(err)
			}
			if _, args, err := decodeStatement(payload); err != nil || len(args) != len(storeBidArgs) {
				b.Fatalf("decode: %d args, %v", len(args), err)
			}
		}
	})
}
