package analysis

import (
	"slices"
	"sync"
)

// Reach memoises, per write template, which registered read templates it
// can touch: those PossiblyDependent finds dependent on it, plus those it
// cannot decide (an unparseable read template, whose error the caller
// reports when it reaches one). Each (write template, read template) pair is
// decided once — when the later of the two first meets the other — and every
// write template's list is kept current as read templates are registered and
// withdrawn, so a write sweep reads its list instead of asking
// PossiblyDependent of every read template it holds. T is the caller's
// handle for a read template; lists hold handles. Safe for concurrent use.
type Reach[T comparable] struct {
	e  *Engine
	mu sync.Mutex
	// reads are the registered read templates, in registration order.
	reads []reachRead[T]
	// writes maps a write template to its list. A list is never modified in
	// place — a change publishes a new slice — so Touched hands it out.
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
// registered at most once until Remove.
func (r *Reach[T]) Add(sql string, h T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads = append(r.reads, reachRead[T]{sql: sql, h: h})
	for _, w := range r.writes {
		if r.touches(sql, w.sql) {
			w.reads = append(w.reads[:len(w.reads):len(w.reads)], h)
		}
	}
}

// Remove withdraws handle h from the registry and from every list.
func (r *Reach[T]) Remove(h T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads = slices.DeleteFunc(r.reads, func(rr reachRead[T]) bool { return rr.h == h })
	for _, w := range r.writes {
		if i := slices.Index(w.reads, h); i >= 0 {
			w.reads = slices.Delete(slices.Clone(w.reads), i, i+1)
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
