package analysis

import "sync"

// Reach memoises, per write template, which registered read templates it
// can touch: those PossiblyDependent finds dependent on it, plus those it
// cannot decide (an unparseable read template, whose error the caller
// reports when it reaches one). A read template stays registered for the
// life of the memo, as the engine's own template memos do, so each (write
// template, read template) pair is decided once — when the later of the two
// first meets the other — and every write template's list grows as read
// templates are registered; a write sweep reads its list instead of asking
// PossiblyDependent of every read template it holds. T is the caller's
// handle for a read template; lists hold handles. Safe for concurrent use.
type Reach[T comparable] struct {
	e  *Engine
	mu sync.Mutex
	// reads are the registered read templates, in registration order.
	reads []reachRead[T]
	// writes maps a write template to its list. A list only grows: an append
	// writes past the end of every slice already handed out, never into it,
	// so Touched hands it out.
	writes map[*TemplateInfo]*reachWrite[T]
}

type reachRead[T comparable] struct {
	sql string
	h   T
}

type reachWrite[T comparable] struct {
	sql   string // the spelling the list was first built for
	reads []T
}

// NewReach returns an empty memo deciding pairs with e.
func NewReach[T comparable](e *Engine) *Reach[T] {
	return &Reach[T]{e: e, writes: make(map[*TemplateInfo]*reachWrite[T])}
}

// touches decides one pair: dependent, or undecidable.
func (r *Reach[T]) touches(readSQL, writeSQL string) bool {
	dep, err := r.e.PossiblyDependent(readSQL, writeSQL)
	return err != nil || dep
}

// Add registers read template sql under handle h, appending h to the list
// of every write template already known that it can touch. A handle is
// registered at most once.
func (r *Reach[T]) Add(sql string, h T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads = append(r.reads, reachRead[T]{sql: sql, h: h})
	for _, w := range r.writes {
		if r.touches(sql, w.sql) {
			w.reads = append(w.reads, h)
		}
	}
}

// Touched returns the handles of the registered read templates pw's write
// template can touch, building the template's list on its first write. The
// slice is shared and must not be modified.
func (r *Reach[T]) Touched(pw *PreparedWrite) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.writes[pw.wi]
	if w == nil {
		w = &reachWrite[T]{sql: pw.w.SQL}
		for _, rr := range r.reads {
			if r.touches(rr.sql, w.sql) {
				w.reads = append(w.reads, rr.h)
			}
		}
		r.writes[pw.wi] = w
	}
	return w.reads
}
