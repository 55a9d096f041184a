package weave

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestStatsLatencyHistograms checks that Record* feeds the per-outcome
// latency histograms: counts line up with the outcome counters, only
// outcomes that occurred appear, and totals merge across interactions.
// Its table pins, per outcome, exactly which InteractionStats fields one
// record moves — the derivation of every count and time from the
// histograms.
func TestStatsLatencyHistograms(t *testing.T) {
	s := NewStats()
	s.Record("search", OutcomeHit, 500*time.Nanosecond, 0)
	s.Record("search", OutcomeHit, 2*time.Microsecond, 0)
	s.Record("search", OutcomeMiss, 3*time.Millisecond, 0)
	s.RecordCoalesced("search", false, time.Microsecond, 10)
	s.Record("bid", OutcomeWrite, time.Millisecond, 2)

	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("interactions = %d, want 2", len(snap))
	}
	byName := map[string]InteractionStats{}
	for _, is := range snap {
		byName[is.Name] = is
	}

	search := byName["search"]
	lat := map[Outcome]uint64{}
	for _, ol := range search.Latencies {
		lat[ol.Outcome] = ol.Latency.Count
	}
	if lat[OutcomeHit] != 2 || lat[OutcomeMiss] != 1 || lat[OutcomeCoalesced] != 1 {
		t.Fatalf("search latency counts = %v", lat)
	}
	if _, present := lat[OutcomeWrite]; present {
		t.Fatal("search must not report a write histogram")
	}
	for _, ol := range search.Latencies {
		if ol.Latency.Sum <= 0 {
			t.Fatalf("outcome %s: zero latency sum", ol.Outcome)
		}
	}

	bid := byName["bid"]
	if len(bid.Latencies) != 1 || bid.Latencies[0].Outcome != OutcomeWrite || bid.Latencies[0].Latency.Count != 1 {
		t.Fatalf("bid latencies = %+v", bid.Latencies)
	}

	tot := s.Totals()
	var n uint64
	for _, ol := range tot.Latencies {
		n += ol.Latency.Count
	}
	if n != 5 {
		t.Fatalf("total latency observations = %d, want 5", n)
	}

	// One row per outcome (and per Record* entry point): the record, the
	// latency series it lands in ("" for none), and the fields it moves
	// besides Requests and TotalTime (which every row but the send failure
	// moves by 1 and d).
	type rec func(s *Stats, name string, d time.Duration)
	served := func(o Outcome, inv, out, cached int) rec {
		return func(s *Stats, name string, d time.Duration) { s.RecordServed(name, o, d, inv, out, cached) }
	}
	const hit, miss = 1, 2 // which of HitTime/MissTime the row's d lands in
	rows := []struct {
		name   string
		rec    rec
		series Outcome
		timeIn int
		want   InteractionStats
	}{
		{"hit", served(OutcomeHit, 0, 100, 100), OutcomeHit, hit,
			InteractionStats{Hits: 1, BytesOut: 100, BytesCached: 100}},
		{"semantic-hit", served(OutcomeSemanticHit, 0, 100, 100), OutcomeSemanticHit, hit,
			InteractionStats{SemanticHits: 1, BytesOut: 100, BytesCached: 100}},
		{"coalesced-strong", func(s *Stats, name string, d time.Duration) { s.RecordCoalesced(name, false, d, 50) },
			OutcomeCoalesced, hit, InteractionStats{Hits: 1, Coalesced: 1, BytesOut: 50, BytesCached: 50}},
		{"coalesced-semantic", func(s *Stats, name string, d time.Duration) { s.RecordCoalesced(name, true, d, 50) },
			OutcomeCoalesced, hit, InteractionStats{SemanticHits: 1, Coalesced: 1, BytesOut: 50, BytesCached: 50}},
		{"coalesced-direct", served(OutcomeCoalesced, 0, 0, 0), OutcomeCoalesced, hit,
			InteractionStats{Hits: 1, Coalesced: 1}},
		{"remote-hit", served(OutcomeRemoteHit, 0, 70, 70), OutcomeRemoteHit, hit,
			InteractionStats{RemoteHits: 1, BytesOut: 70, BytesCached: 70}},
		{"fragment-hit", func(s *Stats, name string, d time.Duration) {
			s.RecordFragments(name, OutcomeFragmentHit, d, 3, 3, 90, 90)
		}, OutcomeFragmentHit, hit, InteractionStats{FragmentHits: 1, FragmentsServed: 3, FragmentsTotal: 3, BytesOut: 90, BytesCached: 90}},
		{"assembled", func(s *Stats, name string, d time.Duration) {
			s.RecordFragments(name, OutcomeAssembled, d, 1, 3, 90, 30)
		}, OutcomeAssembled, 0, InteractionStats{Assembled: 1, FragmentsServed: 1, FragmentsTotal: 3, BytesOut: 90, BytesCached: 30}},
		{"miss", served(OutcomeMiss, 0, 80, 0), OutcomeMiss, miss,
			InteractionStats{Misses: 1, BytesOut: 80}},
		{"write", served(OutcomeWrite, 2, 0, 0), OutcomeWrite, 0,
			InteractionStats{Writes: 1, PagesInvalidated: 2}},
		{"uncacheable", served(OutcomeUncacheable, 0, 0, 0), OutcomeUncacheable, 0,
			InteractionStats{Uncacheable: 1}},
		{"nocache", served(OutcomeNoCache, 0, 0, 0), OutcomeNoCache, 0,
			InteractionStats{Uncacheable: 1}},
		// An error's invalidations are not counted as pages invalidated.
		{"error", served(OutcomeError, 4, 0, 0), OutcomeError, 0,
			InteractionStats{Errors: 1}},
		{"not-modified", served(OutcomeNotModified, 0, 0, 0), OutcomeNotModified, hit,
			InteractionStats{Hits: 1, NotModified: 1}},
		{"send-failure", func(s *Stats, name string, _ time.Duration) { s.RecordSendFailure(name) }, "", 0,
			InteractionStats{SendFailures: 1}},
	}
	all := NewStats()
	wantTotal := InteractionStats{Name: "TOTAL"}
	var wantObs uint64
	for i, r := range rows {
		d := time.Duration(i+1)*time.Millisecond + 123*time.Nanosecond // exact, odd nanoseconds
		want := r.want
		want.Name = r.name
		want.Requests = 1
		if r.series != "" {
			want.TotalTime = d
			wantObs++
		}
		switch r.timeIn {
		case hit:
			want.HitTime = d
		case miss:
			want.MissTime = d
		}
		one := NewStats()
		r.rec(one, r.name, d)
		r.rec(all, r.name, d)
		got := one.Snapshot()
		if len(got) != 1 {
			t.Fatalf("%s: %d interactions", r.name, len(got))
		}
		lats := got[0].Latencies
		got[0].Latencies = nil
		if !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s:\n got %+v\nwant %+v", r.name, got[0], want)
		}
		if r.series == "" {
			if len(lats) != 0 {
				t.Errorf("%s: latency series %+v, want none", r.name, lats)
			}
		} else if len(lats) != 1 || lats[0].Outcome != r.series || lats[0].Latency.Count != 1 {
			t.Errorf("%s: latency series %+v, want one %s observation", r.name, lats, r.series)
		}
		addStats(&wantTotal, &want)
	}
	gotTotal := all.Totals()
	if !sort.SliceIsSorted(gotTotal.Latencies, func(i, j int) bool {
		return gotTotal.Latencies[i].Outcome < gotTotal.Latencies[j].Outcome
	}) {
		t.Errorf("total latencies not sorted by outcome: %+v", gotTotal.Latencies)
	}
	var obs uint64
	for _, ol := range gotTotal.Latencies {
		obs += ol.Latency.Count
	}
	if obs != wantObs {
		t.Errorf("total latency observations = %d, want %d", obs, wantObs)
	}
	gotTotal.Latencies = nil
	if !reflect.DeepEqual(gotTotal, wantTotal) {
		t.Errorf("Totals:\n got %+v\nwant %+v", gotTotal, wantTotal)
	}
}

// addStats adds every counter and duration field of o into s.
func addStats(s, o *InteractionStats) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + ov.Field(i).Uint())
		case reflect.Int64:
			f.SetInt(f.Int() + ov.Field(i).Int())
		}
	}
}

// TestOutcomeClassOrder pins what the snapshot relies on instead of a sort:
// outcomeClasses is in name order, and classIndex agrees with it.
func TestOutcomeClassOrder(t *testing.T) {
	for i, o := range outcomeClasses {
		if classIndex(o) != i {
			t.Errorf("classIndex(%s) = %d, want %d", o, classIndex(o), i)
		}
		if i > 0 && outcomeClasses[i-1] >= o {
			t.Errorf("outcomeClasses not name-sorted at %s", o)
		}
	}
}

// TestSnapshotRatiosNeverExceedOne: a snapshot taken while recorders run is
// consistent across fields — no part counter is read ahead of its whole, so
// hits never exceed requests and no ratio exceeds 1.
func TestSnapshotRatiosNeverExceedOne(t *testing.T) {
	s := NewStats()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Every record is a full hit, so each ratio is exactly 1
				// when read consistently and above 1 when not.
				s.RecordServed("Hits", OutcomeHit, time.Microsecond, 0, 100, 100)
				s.RecordFragments("Frags", OutcomeFragmentHit, time.Microsecond, 2, 2, 60, 60)
			}
		}()
	}
	bad := 0
	for i := 0; i < 20000; i++ {
		for _, is := range s.Snapshot() {
			if is.Hits > is.Requests || is.HitRate() > 1 || is.FragmentHitRate() > 1 || is.CachedByteFraction() > 1 {
				if bad == 0 {
					t.Errorf("inconsistent snapshot: %+v", is)
				}
				bad++
			}
		}
	}
	close(stop)
	wg.Wait()
	if bad > 0 {
		t.Fatalf("%d inconsistent interaction snapshots", bad)
	}
}

// TestRecordServedZeroAlloc guards the instrumented stats path itself:
// recording a hit outcome — a histogram observe plus the byte counters —
// must not allocate, because it sits inside the governed page-hit path whose
// end-to-end AllocsPerRun==0 guard this repo maintains.
func TestRecordServedZeroAlloc(t *testing.T) {
	s := NewStats()
	s.RecordServed("search", OutcomeHit, time.Microsecond, 0, 128, 128) // pre-create the accumulator
	allocs := testing.AllocsPerRun(1000, func() {
		s.RecordServed("search", OutcomeHit, time.Microsecond, 0, 128, 128)
	})
	if allocs != 0 {
		t.Fatalf("RecordServed allocated %v allocs/op, want 0", allocs)
	}
}
