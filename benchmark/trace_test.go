package awcbench

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// request [0,100] has two sibling children, handler [10,60] and
	// serve.write [70,90]; handler has two nested queries [20,30] and
	// [35,55]; a second request [200,230] has no children.
	spans := []Span{
		{ID: 0, Parent: -1, Req: 1, Name: spanRequest, Start: 0, End: 100},
		{ID: 1, Parent: 0, Req: 1, Name: spanHandler, Start: 10, End: 60},
		{ID: 2, Parent: 1, Req: 1, Name: spanQuery, Start: 20, End: 30},
		{ID: 3, Parent: 1, Req: 1, Name: spanQuery, Start: 35, End: 55},
		{ID: 4, Parent: 0, Req: 1, Name: spanWrite, Start: 70, End: 90},
		{ID: 5, Parent: -1, Req: 2, Name: spanRequest, Start: 200, End: 230},
	}
	want := []int64{100 - 50 - 20, 50 - 10 - 20, 10, 20, 20, 30}
	got := SelfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
	// Every request's self times sum to the request span: nothing is
	// counted twice and nothing is lost.
	sum := map[int]int64{}
	for i, s := range spans {
		sum[s.Req] += got[i]
	}
	if sum[1] != 100 || sum[2] != 30 {
		t.Fatalf("self times per request sum to %v, want 100 and 30", sum)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	if id := tr.begin(spanRequest); id != -1 {
		t.Fatalf("a switched-off tracer recorded span %d", id)
	}
	tr.Enable(true)
	if id := tr.begin(spanQuery); id != -1 {
		t.Fatalf("a query outside any request was recorded as span %d", id)
	}
	req := tr.begin(spanRequest)
	h := tr.begin(spanHandler)
	q := tr.begin(spanQuery)
	tr.end(q, "")
	tr.end(h, "")
	w := tr.begin(spanWrite)
	tr.end(w, "")
	tr.end(req, "miss")
	req2 := tr.begin(spanRequest)
	tr.end(req2, "hit")

	spans := tr.Spans()
	type row struct {
		name    string
		parent  int
		req     int
		outcome string
	}
	var got []row
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		got = append(got, row{s.Name, s.Parent, s.Req, s.Outcome})
	}
	want := []row{
		{spanRequest, -1, 1, "miss"},
		{spanHandler, req, 1, ""},
		{spanQuery, h, 1, ""},
		{spanWrite, req, 1, ""},
		{spanRequest, -1, 2, "hit"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans = %+v\nwant   %+v", got, want)
	}
}
