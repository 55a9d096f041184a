package servlet

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"autowebcache/internal/datasource"
)

// Page is a small HTML builder the benchmark applications use to generate
// dynamic pages. It stands in for the JSP/println-style page generation of
// the paper's servlet applications: deliberately cheap to use but with a
// real per-row formatting cost, so regenerating a page does genuine
// business-logic work at the middle tier.
//
// A Page appends into a pooled buffer and is single-use: WriteHTML or
// WriteFragment sends its bytes once and returns the buffer to the pool, so
// the Page must not be touched after either call.
type Page struct {
	b       []byte
	scratch []byte // Text's formatted argument, before escaping
}

// maxPooledPage bounds the buffers the pool keeps, so one huge page does not
// pin its buffer for the life of the process.
const maxPooledPage = 64 << 10

var pagePool = sync.Pool{New: func() any { return &Page{b: make([]byte, 0, 4096)} }}

// NewPartial starts an empty builder for a page fragment: no document
// wrapper is emitted, so partials concatenate into a page whose shell is
// provided by the surrounding segments (see NewPage / ClosePage).
func NewPartial() *Page {
	p := pagePool.Get().(*Page)
	p.b = p.b[:0]
	return p
}

// ClosePage is the document trailer a fragmented page's final segment emits
// to balance the shell NewPage opened.
const ClosePage = "</body></html>"

// NewPage starts a page with the given title.
func NewPage(title string) *Page {
	p := NewPartial()
	p.b = append(p.b, "<!DOCTYPE html><html><head><title>"...)
	p.b = appendEscaped(p.b, title)
	p.b = append(p.b, "</title></head><body>"...)
	return p.H1(title)
}

// H1 appends a heading.
func (p *Page) H1(text string) *Page {
	p.b = append(p.b, "<h1>"...)
	p.b = appendEscaped(p.b, text)
	p.b = append(p.b, "</h1>"...)
	return p
}

// H2 appends a subheading.
func (p *Page) H2(text string) *Page {
	p.b = append(p.b, "<h2>"...)
	p.b = appendEscaped(p.b, text)
	p.b = append(p.b, "</h2>"...)
	return p
}

// Text appends an escaped paragraph.
func (p *Page) Text(format string, args ...any) *Page {
	p.scratch = fmt.Appendf(p.scratch[:0], format, args...)
	p.b = append(p.b, "<p>"...)
	p.b = appendEscaped(p.b, p.scratch)
	p.b = append(p.b, "</p>"...)
	return p
}

// Link appends an anchor.
func (p *Page) Link(href, text string) *Page {
	p.b = append(p.b, `<a href="`...)
	p.b = appendEscaped(p.b, href)
	p.b = append(p.b, `">`...)
	p.b = appendEscaped(p.b, text)
	p.b = append(p.b, "</a>"...)
	return p
}

// Table renders a result set as an HTML table with the given headers. It is
// the workhorse of the benchmark applications' page generation. A cell
// renders as datasource.Rows.Str does, escaped.
func (p *Page) Table(headers []string, rows *datasource.Rows) *Page {
	b := append(p.b, "<table border=\"1\"><tr>"...)
	for _, h := range headers {
		b = append(b, "<th>"...)
		b = appendEscaped(b, h)
		b = append(b, "</th>"...)
	}
	b = append(b, "</tr>"...)
	for _, row := range rows.Data {
		b = append(b, "<tr>"...)
		for _, v := range row {
			b = append(b, "<td>"...)
			switch x := v.(type) {
			case nil:
			case string:
				b = appendEscaped(b, x)
			case int64:
				b = strconv.AppendInt(b, x, 10)
			case float64:
				b = strconv.AppendFloat(b, x, 'g', -1, 64)
			default:
				b = appendEscaped(b, fmt.Sprint(x))
			}
			b = append(b, "</td>"...)
		}
		b = append(b, "</tr>"...)
	}
	p.b = append(b, "</table>"...)
	return p
}

// WriteHTML sends the finished page, closing its document, with status
// 200, and releases the Page.
func (p *Page) WriteHTML(w http.ResponseWriter) {
	p.b = append(p.b, ClosePage...)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.b)
	p.release()
}

// WriteFragment sends the page as a segment's chunk, as-is with no closing
// tags (see the package-level WriteFragment), and releases the Page.
func (p *Page) WriteFragment(w http.ResponseWriter) {
	setFragmentType(w)
	_, _ = w.Write(p.b)
	p.release()
}

// release returns the page's buffers to the pool. Write must not retain
// its argument (the io.Writer contract), so nothing still reads them.
func (p *Page) release() {
	if cap(p.b) > maxPooledPage || cap(p.scratch) > maxPooledPage {
		return
	}
	p.b = p.b[:0]
	pagePool.Put(p)
}

// appendEscaped appends s to dst with the five replacements of
// html.EscapeString: & ' < > ".
func appendEscaped[S string | []byte](dst []byte, s S) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '\'':
			esc = "&#39;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&#34;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}
