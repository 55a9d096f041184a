package servlet

import (
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"autowebcache/internal/memdb"
)

func TestPageKeyOrdering(t *testing.T) {
	a := PageKeyOf("/p", url.Values{"z": {"1"}, "a": {"2"}})
	if a != "/p?a=2&z=1" {
		t.Fatalf("key: %q", a)
	}
	multi := PageKeyOf("/p", url.Values{"a": {"2", "1"}})
	if multi != "/p?a=1&a=2" {
		t.Fatalf("multi-value key: %q", multi)
	}
}

func TestPageKeyEscapes(t *testing.T) {
	k := PageKeyOf("/p", url.Values{"q": {"a b&c"}})
	if !strings.Contains(k, "a+b%26c") {
		t.Fatalf("key not escaped: %q", k)
	}
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
