// Package awcbench is the end-to-end benchmark of the AutoWebCache
// reproduction: it boots cmd/rubis-server as shipped, drives it over loopback
// HTTP with a seeded closed-loop RUBiS client, verifies the answers and
// reports the metrics BENCHMARK.json names. A second, traced mode composes
// the same stack in-process through the public constructors and attributes
// time and counts to each layer. README.md has the tables and the rationale.
package awcbench

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"autowebcache/internal/rubis"
)

// Clients is the closed-loop client count: two per core of the 2-core box the
// bounds were sized on. With one client per core the cores idle a fifth of
// the time between a request's hand-offs, every wake-up of a halted virtual
// CPU costs whatever the host happens to charge, and the hit-path workload's
// throughput and latencies spread 19-28% between identical runs; with two per
// core there is always a runnable request and the same spreads are 3-7%.
const Clients = 4

// Workload is one benchmark configuration: a server deployment, a request
// mix and the amount of work each phase does.
type Workload struct {
	Name string
	// Nodes is the number of rubis-server processes.
	Nodes int
	// Sqlite selects the shared file-backed datasource over memdb.
	Sqlite bool
	// Flags are the server flags beyond -addr/-metrics-listen/-db; the
	// placeholder {l2} expands to the node's private L2 directory.
	Flags []string
	// Cluster adds -listen-peer/-peers wiring between the nodes.
	Cluster bool
	// Negotiate makes the client send Accept-Encoding: gzip on 80% of
	// requests and replay remembered ETags on a seeded third of revisits.
	Negotiate bool
	// Mix builds the interaction mix.
	Mix func(rubis.Scale) rubis.Mix
	// Warmup is the request count each set-up issues before measuring.
	Warmup int
	// TraceRequests is the fixed request count of each in-process segment
	// of the traced run, so its counts are a pure function of the seed.
	TraceRequests int
}

// Workloads lists the benchmark's workloads in the order they run;
// BENCHMARK.json and README.md say why each exists.
func Workloads() []*Workload {
	return []*Workload{
		{
			// The hit path does the work: key, Lookup, negotiate, write.
			Name:      "browse-warm",
			Nodes:     1,
			Flags:     []string{"-encodings", "gzip", "-etag"},
			Negotiate: true,
			Mix:       browseTrickleMix,
			Warmup:    20000, TraceRequests: 10000,
		},
		{
			// The miss and write paths: handler, recording Conn, TryInsert,
			// analysis, dependency sweep — reads beside writes on one cache.
			Name:   "bid-mix",
			Nodes:  1,
			Mix:    rubis.BiddingMix,
			Warmup: 6000, TraceRequests: 4000,
		},
		{
			// L1 a fraction of the working set: eviction, admission, demotion,
			// promotion and the fsync'd tombstone, on the file-backed database.
			Name:   "bid-tiered",
			Nodes:  1,
			Sqlite: true,
			Flags:  []string{"-max-bytes", "256k", "-admission", "-l2", "{l2}", "-l2-max-bytes", "64m"},
			Mix:    rubis.BiddingMix,
			Warmup: 5000, TraceRequests: 3000,
		},
		{
			// The peer tier: remote fetch/offer on misses, a strong broadcast
			// on every write, one database shared by the nodes.
			Name:    "bid-cluster3",
			Nodes:   3,
			Sqlite:  true,
			Cluster: true,
			Flags:   []string{"-invalidation", "strong", "-replication", "1"},
			Mix:     rubis.BiddingMix,
			Warmup:  4000, TraceRequests: 2000,
		},
	}
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (*Workload, error) {
	var names []string
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// ServerArgs returns node i's rubis-server command line. addrs holds the
// node's HTTP, admin and peer listen addresses; dir is the run's private
// directory (sqlite file, L2 directories).
func (w *Workload) ServerArgs(i int, addrs []NodeAddrs, dir string) []string {
	args := []string{"-addr", addrs[i].HTTP, "-metrics-listen", addrs[i].Admin}
	if w.Sqlite {
		args = append(args, "-db", "sqlite:"+dir+"/db")
	} else {
		args = append(args, "-db", "memdb")
	}
	for _, f := range w.Flags {
		args = append(args, strings.ReplaceAll(f, "{l2}", fmt.Sprintf("%s/l2-%d", dir, i)))
	}
	if w.Cluster {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a.Peer)
			}
		}
		args = append(args, "-listen-peer", addrs[i].Peer, "-peers", strings.Join(peers, ","))
	}
	return args
}

// browseTrickleMix is RUBiS's read-only browsing mix plus StoreComment at
// 1.7% of requests. The benchmark contract wants every end-to-end metric on
// every workload, so the hit-path workload needs enough writes for a write
// percentile. StoreComment is the write that invalidates least (one user's
// pages; the other writes sweep whole search listings and cost ~15 points of
// hit ratio at the same rate), so the workload stays a hit-path workload and
// adds the case of invalidations landing on a hot cache.
func browseTrickleMix(s rubis.Scale) rubis.Mix {
	writes := writeNames(s)
	var out rubis.Mix
	for _, e := range rubis.BiddingMix(s) {
		switch {
		case !writes[e.Name]:
			e.Weight *= 10
		case e.Name == "StoreComment":
			e.Weight = 15
		default:
			continue
		}
		out = append(out, e)
	}
	return out
}

// writeNames returns the write interactions, taken from the application's
// own read/write classification.
func writeNames(s rubis.Scale) map[string]bool {
	writes := make(map[string]bool)
	for _, h := range rubis.New(nil, s, 0).Handlers() {
		if h.Write {
			writes[h.Name] = true
		}
	}
	return writes
}

// Request is one generated request: everything the client decides before
// looking at any response, so the stream is a pure function of the seed.
type Request struct {
	Name  string
	Path  string
	Write bool
	// Gzip sends Accept-Encoding: gzip.
	Gzip bool
	// Conditional replays the path's remembered ETag as If-None-Match when
	// the client holds one.
	Conditional bool
}

// Stream is one client's request sequence.
type Stream struct {
	rng       *rand.Rand
	mix       rubis.Mix
	writes    map[string]bool
	client    int
	negotiate bool
}

// NewStream builds client's stream for a workload and seed.
func NewStream(w *Workload, seed int64, client int) *Stream {
	scale := rubis.DefaultScale()
	return &Stream{
		rng:       rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919)),
		mix:       w.Mix(scale),
		writes:    writeNames(scale),
		client:    client,
		negotiate: w.Negotiate,
	}
}

// Next draws the next request.
func (s *Stream) Next() Request {
	name, path := s.mix.Request(s.rng, s.client)
	r := Request{Name: name, Path: path, Write: s.writes[name]}
	if s.negotiate {
		r.Gzip = s.rng.Intn(5) != 0
		r.Conditional = s.rng.Intn(3) == 0
	}
	return r
}

// StreamHash fingerprints the first n requests of every client's stream.
func StreamHash(w *Workload, seed int64, n int) string {
	h := fnv.New64a()
	for c := 0; c < Clients; c++ {
		s := NewStream(w, seed, c)
		for i := 0; i < n; i++ {
			r := s.Next()
			fmt.Fprintf(h, "%s %s %t %t %t\n", r.Name, r.Path, r.Write, r.Gzip, r.Conditional)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
