package cluster

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_frames.txt from the current encoder")

const goldenPath = "testdata/golden_frames.txt"

// goldenFrames is one frame per peer message type, with every value kind
// and nil, empty and one-entry lists. Vectors hold at most one entry so map
// order cannot move the bytes.
func goldenFrames(t *testing.T) [][2]string {
	t.Helper()
	deps := []analysis.Query{
		{SQL: "SELECT a FROM t WHERE b = ? AND c = ?", Args: []memdb.Value{int64(-7), 1.5, "s", nil}},
		{SQL: "SELECT 1"},
		{SQL: "", Args: []memdb.Value{}},
	}
	vector := map[string]uint64{"10.0.0.1:9091": 17}
	update := analysis.WriteCapture{
		Query: analysis.Query{SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []memdb.Value{int64(math.MaxInt64), "x"}},
		Affected: &memdb.Rows{Columns: []string{"a", "b"},
			Data: [][]memdb.Value{{int64(1), math.Copysign(0, -1)}, nil, {}}},
		AutoID: 42, HasAutoID: true,
	}
	body := []byte("<html>page body</html>")
	frames := []struct {
		name string
		typ  byte
		m    meta
		body []byte
	}{
		{"get", msgGet, &getMeta{Key: "/page?x=1"}, nil},
		{"get-resolve", msgGet, &getMeta{Key: "/page?x=1;sid=7", URI: "/page?x=1", Cookie: "sid=7"}, nil},
		{"get-resp", msgGetResp, &getRespMeta{Found: true, Cacheable: true, Status: 200, ContentType: "text/html",
			TTLNanos: math.MinInt64, Deps: deps, Applied: vector}, body},
		{"get-resp-generated", msgGetResp, &getRespMeta{Found: true, Generated: true, Cacheable: true, Status: 200,
			ContentType: "text/html", Deps: deps, Applied: vector}, body},
		{"get-resp-once", msgGetResp, &getRespMeta{Found: true, Generated: true, Status: 500,
			ContentType: "text/plain; charset=utf-8"}, []byte("boom")},
		{"get-resp-redirect", msgGetResp, &getRespMeta{Found: true, Generated: true, Status: 302,
			ContentType: "text/html; charset=utf-8", Header: http.Header{"Location": {"/login"}, "Set-Cookie": {"sid=1", "seen=1"}}}, nil},
		{"put", msgPut, &putMeta{Key: "/k", ContentType: "text/html", TTLNanos: 30e9,
			Deps: deps, Applied: map[string]uint64{}}, body},
		{"put-resp", msgPutResp, &putRespMeta{OK: true}, nil},
		{"inv", msgInv, &invMeta{Origin: "10.0.0.1:9091", Seq: math.MaxUint64, Captures: []analysis.WriteCapture{update}}, nil},
		{"inv-two", msgInv, &invMeta{Origin: "10.0.0.1:9091", Seq: 20, Captures: []analysis.WriteCapture{{
			Query:  analysis.Query{SQL: "INSERT INTO t (a, b) VALUES (?, ?)", Args: []memdb.Value{int64(3), "y"}},
			AutoID: 7, HasAutoID: true,
		}, update}}, nil},
		{"inv-resp", msgInvResp, &invRespMeta{Pages: 3}, nil},
		{"flush", msgFlush, &flushMeta{Origin: "10.0.0.1:9091", Seq: 19}, nil},
		{"flush-resp", msgFlushResp, &flushRespMeta{OK: true}, nil},
		{"ping", msgPing, &pingMeta{Origin: "10.0.0.1:9091", Seq: 19}, nil},
		{"pong", msgPong, &pongMeta{OK: true, Applied: 1 << 40}, nil},
	}
	out := make([][2]string, len(frames))
	for i, f := range frames {
		out[i] = [2]string{f.name, hex.EncodeToString(encodeFrame(t, f.typ, f.m, f.body))}
	}
	return out
}

// TestGoldenFrames pins the peer wire bytes: every message type encodes to
// the frame committed in testdata, so a codec change that moves a byte on
// the wire fails here. Regenerate only for a deliberate format change, with
// -update-golden.
func TestGoldenFrames(t *testing.T) {
	frames := goldenFrames(t)
	if *updateGolden {
		var b strings.Builder
		for _, f := range frames {
			fmt.Fprintf(&b, "%s %s\n", f[0], f[1])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, frame, _ := strings.Cut(sc.Text(), " ")
		want[name] = frame
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(frames) {
		t.Fatalf("golden file holds %d frames, want %d", len(want), len(frames))
	}
	for _, f := range frames {
		if want[f[0]] != f[1] {
			t.Errorf("%s frame moved:\n got %s\nwant %s", f[0], f[1], want[f[0]])
		}
	}
}
