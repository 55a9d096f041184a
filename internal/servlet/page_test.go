package servlet

import (
	"bytes"
	"fmt"
	"html"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"autowebcache/internal/datasource"
)

// refPage is the string-building page renderer Page replaced: every text
// goes through html.EscapeString, every cell through Rows.Str. Page must
// produce its bytes exactly, or every cached page's ETag would change.
type refPage struct{ b strings.Builder }

func (p *refPage) open(title string) *refPage {
	p.b.WriteString("<!DOCTYPE html><html><head><title>")
	p.b.WriteString(html.EscapeString(title))
	p.b.WriteString("</title></head><body>")
	return p.h("h1", title)
}

func (p *refPage) h(tag, text string) *refPage {
	p.b.WriteString("<" + tag + ">" + html.EscapeString(text) + "</" + tag + ">")
	return p
}

func (p *refPage) text(format string, args ...any) *refPage {
	p.b.WriteString("<p>" + html.EscapeString(fmt.Sprintf(format, args...)) + "</p>")
	return p
}

func (p *refPage) link(href, text string) *refPage {
	p.b.WriteString(`<a href="` + html.EscapeString(href) + `">` + html.EscapeString(text) + "</a>")
	return p
}

func (p *refPage) table(headers []string, rows *datasource.Rows) *refPage {
	p.b.WriteString("<table border=\"1\"><tr>")
	for _, h := range headers {
		p.b.WriteString("<th>" + html.EscapeString(h) + "</th>")
	}
	p.b.WriteString("</tr>")
	for i := range rows.Data {
		p.b.WriteString("<tr>")
		for j := range rows.Data[i] {
			p.b.WriteString("<td>" + html.EscapeString(rows.Str(i, j)) + "</td>")
		}
		p.b.WriteString("</tr>")
	}
	p.b.WriteString("</table>")
	return p
}

// awkward holds a cell of every kind a driver returns, and a bool no driver
// returns, with every character html.EscapeString replaces.
var awkward = &datasource.Rows{
	Columns: []string{"a", "b", "c"},
	Data: [][]datasource.Value{
		{int64(0), int64(-42), int64(math.MinInt64)},
		{int64(math.MaxInt64), 1.5, -0.25},
		{1e21, -1e-7, 123456789.0},
		{math.NaN(), math.Inf(1), math.Inf(-1)},
		{nil, "a&b'c<d>e\"f", true},
		{"", "&&<<>>", `"'`},
		{"naïve — ünïcode", float64(-0.0), float64(3)},
	},
}

func TestPageMatchesReference(t *testing.T) {
	const title = `Q&A: <"it's"> page`
	headers := []string{"x&y", "<th>", `"q'`}

	var ref refPage
	ref.open(title).h("h2", "sub>head").text("value %d of %q & %v", -7, "x<y", 1e300).
		link("/x?a=1&b='2'", "go <now>").table(headers, awkward).table(nil, &datasource.Rows{})
	want := ref.b.String()

	p := NewPage(title)
	p.H2("sub>head").Text("value %d of %q & %v", -7, "x<y", 1e300).
		Link("/x?a=1&b='2'", "go <now>").Table(headers, awkward).Table(nil, &datasource.Rows{})
	frag := httptest.NewRecorder()
	p.WriteFragment(frag)
	if got := frag.Body.String(); got != want {
		t.Fatalf("fragment differs from the reference:\n got %q\nwant %q", got, want)
	}

	whole := httptest.NewRecorder()
	NewPage(title).H2("sub>head").Text("value %d of %q & %v", -7, "x<y", 1e300).
		Link("/x?a=1&b='2'", "go <now>").Table(headers, awkward).Table(nil, &datasource.Rows{}).WriteHTML(whole)
	if got := whole.Body.String(); got != want+ClosePage {
		t.Fatalf("page differs from the reference:\n got %q\nwant %q", got, want+ClosePage)
	}
	if whole.Code != 200 || whole.Header().Get("Content-Type") != "text/html; charset=utf-8" {
		t.Fatalf("WriteHTML: status %d, type %q", whole.Code, whole.Header().Get("Content-Type"))
	}
}

// TestPageBufferNotAliased: a page's bytes, once written, belong to the
// writer. Rendering the next page into the recycled buffer must not change
// what the first one wrote.
func TestPageBufferNotAliased(t *testing.T) {
	a := httptest.NewRecorder()
	NewPage("A").Text(strings.Repeat("a", 100)).WriteHTML(a)
	captured := a.Body.Bytes()
	want := bytes.Clone(captured)

	for range 4 {
		b := httptest.NewRecorder()
		NewPage("B").Text(strings.Repeat("b", 100)).WriteHTML(b)
		if !bytes.Contains(b.Body.Bytes(), []byte("bbbb")) {
			t.Fatalf("page B: %q", b.Body.String())
		}
	}
	if !bytes.Equal(captured, want) {
		t.Fatalf("page A changed after page B rendered:\n got %q\nwant %q", captured, want)
	}
}

// FuzzParam: Param reads RawQuery in place with url.Query().Get's exact
// semantics, over any query string and any name.
func FuzzParam(f *testing.F) {
	for _, seed := range [][2]string{
		{"id=1&name=bob", "name"},
		{"a=1;b=2&a=3", "a"},
		{"a=%zz&a=2", "a"},
		{"%zz=1&a=2", "a"},
		{"q=a+b%20c", "q"},
		{"a+b=1", "a b"},
		{"k=1&k=2", "k"},
		{"=v&x=1", ""},
		{"&&a&a=&a=1", "a"},
		{"a%3Db=c", "a=b"},
		{"x=%", "x"},
		{"", "x"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, name string) {
		r := httptest.NewRequest("GET", "/p", nil)
		r.URL.RawQuery = raw
		if got, want := Param(r, name), r.URL.Query().Get(name); got != want {
			t.Fatalf("Param(%q, %q) = %q, url.Query().Get = %q", raw, name, got, want)
		}
	})
}

func TestParamAllocatesNothing(t *testing.T) {
	r := httptest.NewRequest("GET", "/viewItem?itemId=42&session=7&q=a+b", nil)
	if n := testing.AllocsPerRun(100, func() {
		if ParamInt(r, "session", 0) != 7 || Param(r, "missing") != "" {
			t.Fatal("param")
		}
	}); n != 0 {
		t.Fatalf("reading a plain parameter: %v allocs, want 0", n)
	}
	if got := Param(r, "q"); got != (url.Values{"q": {"a b"}}).Get("q") {
		t.Fatalf("q = %q", got)
	}
}

// BenchmarkRenderTable renders and sends a 25-row search page, the shape of
// RUBiS's item lists.
func BenchmarkRenderTable(b *testing.B) {
	rows := &datasource.Rows{Columns: []string{"id", "name", "initial", "max", "bids", "end"}}
	for i := range 25 {
		rows.Data = append(rows.Data, []datasource.Value{
			int64(1000 + i), fmt.Sprintf("item <%d> & co", i), 12.5 + float64(i), 99.75, int64(i), int64(1_700_000_000 + i),
		})
	}
	headers := []string{"Id", "Name", "Initial", "Max bid", "Bids", "Ends"}
	w := &discard{h: make(http.Header)}
	b.ReportAllocs()
	for b.Loop() {
		p := NewPage("RUBiS — Items in category 3, region 4")
		p.Table(headers, rows)
		p.WriteHTML(w)
	}
}

// discard is a ResponseWriter that keeps nothing but its header map.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}
