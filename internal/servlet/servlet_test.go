package servlet

import (
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"autowebcache/internal/memdb"
)

func TestPageKeyOrdering(t *testing.T) {
	a := PageKey(httptest.NewRequest("GET", "/p?z=1&a=2", nil))
	if a != "/p?a=2&z=1" {
		t.Fatalf("key: %q", a)
	}
	multi := PageKey(httptest.NewRequest("GET", "/p?a=2&a=1", nil))
	if multi != "/p?a=1&a=2" {
		t.Fatalf("multi-value key: %q", multi)
	}
}

func TestPageKeyEscapes(t *testing.T) {
	k := PageKey(httptest.NewRequest("GET", "/p?q=a%20b%26c", nil))
	if !strings.Contains(k, "a+b%26c") {
		t.Fatalf("key not escaped: %q", k)
	}
}

// pageKeyOf is the reference page key: the path, then the pairs
// url.ParseQuery yields, sorted by name and then value, QueryEscape'd.
func pageKeyOf(path string, params url.Values) string {
	if len(params) == 0 {
		return path
	}
	var pairs [][2]string
	for k, vs := range params {
		for _, v := range vs {
			pairs = append(pairs, [2]string{k, v})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	var b strings.Builder
	b.WriteString(path)
	for i, p := range pairs {
		b.WriteByte("?&"[min(i, 1)])
		b.WriteString(url.QueryEscape(p[0]) + "=" + url.QueryEscape(p[1]))
	}
	return b.String()
}

// FuzzPageKeyMatchesQuery: PageKey, which walks RawQuery in place, builds
// the key the url.ParseQuery reading of the same query gives.
func FuzzPageKeyMatchesQuery(f *testing.F) {
	for _, seed := range []string{
		"itemId=7", "b=2&a=1", "a=2&a=1&a=2", "q=a+b%20c", "a%3Db=c", "=v&x=1",
		"&&a&a=&a=1", "a=1;b=2&c=3", "x=%zz&y=1", "%zz=1", "k=%E2%82%AC", "k=%e9",
		"a=1&a=1", "~._-=~._-", "z&y&x", "a=b=c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := httptest.NewRequest("GET", "/p", nil)
		r.URL.RawQuery = raw
		params, _ := url.ParseQuery(raw) // pairs it cannot parse are skipped, as PageKey skips them
		if got, want := PageKey(r), pageKeyOf("/p", params); got != want {
			t.Fatalf("PageKey(%q) = %q, want %q", raw, got, want)
		}
	})
}

func TestPageKeyFromRequest(t *testing.T) {
	r := httptest.NewRequest("GET", "/view?b=2&a=1", nil)
	if got := PageKey(r); got != "/view?a=1&b=2" {
		t.Fatalf("key: %q", got)
	}
}

func TestParams(t *testing.T) {
	r := httptest.NewRequest("GET", "/x?id=42&name=bob&bad=xyz", nil)
	if Param(r, "name") != "bob" {
		t.Fatal("param")
	}
	if ParamInt(r, "id", 0) != 42 {
		t.Fatal("param int")
	}
	if ParamInt(r, "missing", 7) != 7 {
		t.Fatal("default")
	}
	if ParamInt(r, "bad", 7) != 7 {
		t.Fatal("malformed default")
	}
}

func TestWriteHelpers(t *testing.T) {
	rr := httptest.NewRecorder()
	WriteHTML(rr, "<html>x</html>")
	if rr.Code != 200 || rr.Header().Get("Content-Type") == "" {
		t.Fatalf("WriteHTML: %d", rr.Code)
	}
	rr2 := httptest.NewRecorder()
	ClientError(rr2, "bad")
	if rr2.Code != 400 {
		t.Fatalf("ClientError: %d", rr2.Code)
	}
	rr3 := httptest.NewRecorder()
	ServerError(rr3, errFake{})
	if rr3.Code != 500 {
		t.Fatalf("ServerError: %d", rr3.Code)
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }

func TestPageBuilder(t *testing.T) {
	p := NewPage("Title & Co")
	p.H2("Sub<script>")
	p.Text("value %d", 42)
	p.Link("/x?a=1", "go")
	rows := &memdb.Rows{
		Columns: []string{"a", "b"},
		Data:    [][]memdb.Value{{int64(1), "x<y"}, {int64(2), nil}},
	}
	p.Table([]string{"A", "B"}, rows)
	rr := httptest.NewRecorder()
	p.WriteHTML(rr)
	out := rr.Body.String()
	for _, want := range []string{
		"Title &amp; Co", "Sub&lt;script&gt;", "value 42",
		"<td>x&lt;y</td>", "<table", "</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("page missing %q", want)
		}
	}
	if strings.Contains(out, "<script>") {
		t.Error("unescaped script tag")
	}
}
