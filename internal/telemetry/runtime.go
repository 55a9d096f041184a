package telemetry

import (
	"runtime"
	"time"
)

// RegisterRuntimeMetrics adds standard Go process gauges to reg — the
// minimal set an operator needs next to the cache series to tell "cache
// problem" from "process problem": goroutine count, heap footprint, GC
// activity and process start time (for uptime/restart detection).
func RegisterRuntimeMetrics(reg *Registry) {
	start := float64(time.Now().Unix())
	reg.Collect(func(g *Gatherer) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		for _, s := range []struct {
			name string
			typ  Type
			help string
			v    float64
		}{
			{"go_goroutines", TypeGauge,
				"Number of goroutines that currently exist.", float64(runtime.NumGoroutine())},
			{"process_start_time_seconds", TypeGauge,
				"Start time of the process since unix epoch in seconds.", start},
			{"go_memstats_heap_alloc_bytes", TypeGauge,
				"Number of heap bytes allocated and still in use.", float64(m.HeapAlloc)},
			{"go_memstats_heap_objects", TypeGauge,
				"Number of allocated objects on the heap.", float64(m.HeapObjects)},
			{"go_memstats_gc_cycles_total", TypeCounter,
				"Number of completed GC cycles.", float64(m.NumGC)},
			{"go_memstats_total_alloc_bytes_total", TypeCounter,
				"Cumulative bytes allocated on the heap.", float64(m.TotalAlloc)},
		} {
			g.Declare(s.name, s.typ, s.help)
			g.Value(s.name, s.v)
		}
	})
}
