package cache

// Content-encoding variants and validators (insert-time serve
// precomputation). A real response pays more than the cache probe: body
// transfer and revalidation dominate once the lookup is nanoseconds. Both
// costs are moved to insert time, where they are paid once per generation
// instead of once per request:
//
//   - a gzip variant of the body, compressed exactly once when the entry is
//     built, sharing the entry's dependency set, TTL and epoch-guard
//     lifecycle, and byte-accounted individually against MaxBytes;
//   - a strong, content-derived ETag, so a conditional request on a hit is
//     answered 304 straight from the entry with zero body bytes;
//   - the decimal Content-Length strings of both variants, so the serve
//     path sets the header without a per-request integer-to-string
//     allocation.
//
// The serve layer (internal/weave) negotiates per request from
// Accept-Encoding and If-None-Match; this file only builds and accounts the
// variants. Cluster note: variants do NOT ride the peer protocol — the wire
// carries the identity body only, and a receiving node recompresses at
// insert under its own Options (see internal/cluster), so heterogeneous
// per-node serve configurations stay independent.

import (
	"bytes"
	"compress/gzip"
	"io"
	"strconv"
	"sync"
)

// gzipMinBytes is the smallest body a gzip variant is built for: below it
// the transfer saving cannot beat the header overhead plus the per-entry
// bookkeeping.
const gzipMinBytes = 256

// variantOverhead approximates the fixed Go-side cost of an entry's variant
// metadata (slice/string headers for the gzip body, ETag and length
// strings), charged on top of the payload bytes.
const variantOverhead = 64

// gzPool recycles gzip writers across inserts: compression happens once per
// generated page, but a writer carries large window state — building one
// per insert would dominate the miss path's allocations.
var gzPool = sync.Pool{
	New: func() any {
		w, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		return w
	},
}

// compressOnce builds the gzip representation of body, or nil when
// compression fails. BestSpeed on purpose: the cost lands inline on the
// miss path (once per generation), while the ratio is amortised over every
// hit that negotiates the variant.
func compressOnce(body []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(body)/2 + 64)
	zw := gzPool.Get().(*gzip.Writer)
	zw.Reset(&buf)
	_, err := zw.Write(body)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	gzPool.Put(zw)
	if err != nil {
		return nil
	}
	return buf.Bytes()
}

// strongETag renders a strong validator from the entry's exact bytes:
// FNV-1a over the body, joined with the body length, quoted per RFC 7232.
// Content-derived on purpose — a page regenerated byte-identical after an
// invalidation keeps its tag (clients keep revalidating successfully, and
// every node of a cluster derives the same tag independently), while any
// content change produces a new one.
func strongETag(body []byte) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range body {
		h ^= uint64(b)
		h *= prime64
	}
	var buf [40]byte
	out := append(buf[:0], '"')
	out = strconv.AppendUint(out, h, 16)
	out = append(out, '-')
	out = strconv.AppendUint(out, uint64(len(body)), 16)
	out = append(out, '"')
	return string(out)
}

// buildVariants attaches the serve-path metadata to a freshly built page:
// the once-per-insert gzip variant, the strong ETag and the precomputed
// Content-Length strings. It is skipped entirely when neither knob is on,
// so the historical insert path gains no work and no allocations. The
// caller charges variantCost(p) into the entry's accounted size.
func (c *Cache) buildVariants(p *Page) {
	if !c.opts.Gzip && !c.opts.ETags {
		return
	}
	if c.opts.ETags {
		p.ETag = strongETag(p.Body)
	}
	if c.opts.Gzip && len(p.Body) >= gzipMinBytes {
		// Counted per compressor run, whether or not the result is kept:
		// the exactly-once-per-insert contract is pinned on this counter.
		c.gzipCompressions.Add(1)
		if gz := compressOnce(p.Body); gz != nil && len(gz) < len(p.Body) {
			p.Gzip = gz
			p.GzipLen = strconv.Itoa(len(gz))
		}
	}
	p.BodyLen = strconv.Itoa(len(p.Body))
}

// variantCost is the accounted byte size of a page's variant metadata,
// charged against MaxBytes alongside entryCost — a budget sized for bodies
// must not silently overshoot by the compressed copies riding with them.
func variantCost(p *Page) int64 {
	if p.Gzip == nil && p.ETag == "" && p.BodyLen == "" {
		return 0
	}
	return variantOverhead + int64(len(p.Gzip)) + int64(len(p.ETag)) +
		int64(len(p.BodyLen)) + int64(len(p.GzipLen))
}
