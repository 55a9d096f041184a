// Package cluster turns N autowebcache processes into one logical cache:
// a consistent-hash ring routes each page key to its one owner node, a small
// length-prefixed TCP protocol fetches pages from owners and replicates
// locally generated pages to them, and write invalidations are broadcast to
// every peer so the paper's §3.2 strong-consistency contract holds
// cluster-wide — the multi-node web tier the paper's own RUBiS/TPC-W
// testbed deploys, applied to the cache itself.
//
// The tier is embeddable: a Node wraps the process's existing page cache
// and plugs into the weave as its Remote
// and into the cache as its RemoteInvalidator. With an empty peer list the
// Node degrades to pure local mode: every fetch misses without touching the
// network, every broadcast is a no-op, and the single-node hot paths are
// byte-for-byte the ones PR 2 measured.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ParsePeerList splits a comma-separated peer-address list (the servers'
// -peers flag format), trimming whitespace and dropping empties.
func ParsePeerList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ringPoint is one virtual node: the hash of "nodeID/vnodeIndex" on the
// ring, owned by node.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring. Membership changes build a new
// Ring (see Node.SetPeers); lookups are lock-free reads of a snapshot, so
// the request hot path never contends with a reconfiguration.
type Ring struct {
	vnodes int
	nodes  []string // distinct node IDs, sorted
	points []ringPoint
}

// DefaultVNodes is the virtual-node count per physical node of every Node's
// ring. It is a constant, not a setting: two peers with different counts
// would disagree on key ownership with no error anywhere. 64 points per node
// keeps the maximal keyspace imbalance across a handful of nodes within a
// few percent.
const DefaultVNodes = 64

// NewRing builds a ring over the given node IDs (duplicates are collapsed)
// with vnodes virtual nodes each (0 picks DefaultVNodes).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{vnodes: vnodes}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*vnodes)
	for _, n := range r.nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "/" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring's member IDs, sorted. The slice is the ring's own;
// treat it as read-only.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node owning key: the first virtual node clockwise from
// the key's hash. It returns "" on an empty ring. The walk is a binary
// search over the sorted points and allocates nothing — it runs on every
// miss's Fetch and Offer.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // past the last point: wrap clockwise to the first
	}
	return r.points[i].node
}

// String renders the membership for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d nodes, %d vnodes)%v", len(r.nodes), r.vnodes, r.nodes)
}

// hash64 is FNV-1a over s with a murmur-style finalizer. Plain FNV-1a has
// weak avalanche on short, similar strings — the vnode labels "addr/0",
// "addr/1", … land clustered on the ring, skewing ownership several-fold —
// so the finalizer mixes the result to uniform. Allocation-free like
// the cache's shard hash.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
