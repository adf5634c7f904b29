package sim

import (
	"crypto/sha256"
	"sort"
)

// This file is the whole-plane layer of the data-plane engine. A pair's
// canonical path-set key is the sorted "<status>:<hops>" lines joined
// with "\n"; the data plane stores a fixed-size 128-bit digest of exactly
// that byte sequence per ordered host pair and never the paths or the key
// itself. Equality of digests stands in for equality of canonical keys
// everywhere a whole plane is compared (DiffPairs, ExactlyKeptFraction);
// callers that need hop sequences name their pairs and call TraceFrom.
//
// The digest is the first 128 bits of SHA-256 over the canonical key
// bytes. Two distinct path sets collide with probability ~2⁻¹²⁸ per pair
// (~2⁻⁶⁴ birthday bound across any realistic number of compared pairs) —
// far below the failure rates of the hardware the pipeline runs on; see
// DESIGN.md §12 for the soundness argument.

// Digest is a 128-bit fingerprint of a pair's canonical path-set key. The
// zero value is reserved for the empty path set (no trace data), matching
// the empty canonical key.
type Digest [16]byte

// digestOfBytes fingerprints canonical key content accumulated in a
// reusable scratch buffer.
func digestOfBytes(b []byte) Digest {
	if len(b) == 0 {
		return Digest{}
	}
	sum := sha256.Sum256(b)
	var d Digest
	copy(d[:], sum[:16])
	return d
}

// Pair identifies an ordered host pair.
type Pair struct{ Src, Dst string }

// DataPlane is the collection of all host-to-host forwarding behaviour —
// the DP of the paper's formalization — held as one Digest per ordered
// host pair in a flat dense array (16 bytes per pair, no per-pair path or
// string storage), so its peak heap scales with the host count rather
// than with H² path data.
type DataPlane struct {
	hosts []string
	index map[string]int
	// fps[j*len(hosts)+i] is the digest for Pair{Src: hosts[i], Dst:
	// hosts[j]}; diagonal slots stay zero.
	fps []Digest
}

func newDataPlane(hosts []string) *DataPlane {
	dp := &DataPlane{
		hosts: hosts,
		index: make(map[string]int, len(hosts)),
		fps:   make([]Digest, len(hosts)*len(hosts)),
	}
	for i, h := range hosts {
		dp.index[h] = i
	}
	return dp
}

// Hosts returns the host list the plane covers (shared; read-only).
func (dp *DataPlane) Hosts() []string { return dp.hosts }

// Digest returns the fingerprint for an ordered pair; ok is false when
// either host is outside the covered set, and the digest is then the
// zero (empty path set) value.
func (dp *DataPlane) Digest(src, dst string) (Digest, bool) {
	i, oki := dp.index[src]
	j, okj := dp.index[dst]
	if !oki || !okj {
		return Digest{}, false
	}
	return dp.fps[j*len(dp.hosts)+i], true
}

// DataPlaneFor computes the fingerprint of every ordered pair drawn from
// hosts (used to restrict the anonymized network's DP to real hosts)
// without materializing any path: per destination it builds a transient
// successor-graph engine, streams each source's canonical key bytes out
// of the structural suffix memos, and releases the engine before moving
// on. Peak heap is bounded by the worker count times one destination's
// memo storage plus the flat 16-byte-per-pair result. The work is
// sharded by destination over the Snapshot's worker pool into
// index-addressed slots, so the output is identical at any parallelism.
func (s *Snapshot) DataPlaneFor(hosts []string) *DataPlane {
	return s.DataPlaneForSeeded(hosts, nil)
}

// digestColLen is the serialized size of one destination's digest
// column: one 16-byte digest per source, in hosts order.
func digestColLen(hosts []string) int { return len(hosts) * 16 }

// ExportColumns serializes the plane as per-destination columns: the
// column for destination d is the concatenation of the (src, d) digests
// for every src in the plane's hosts order (the zero diagonal slot
// included, so a column is always 16×len(hosts) bytes). Columns are the
// unit of reuse: a resumed job, or a strawman round whose filter edit
// left a destination clean, seeds DataPlaneForSeeded with them.
func (dp *DataPlane) ExportColumns() map[string][]byte {
	h := len(dp.hosts)
	out := make(map[string][]byte, h)
	for j, dst := range dp.hosts {
		col := make([]byte, 0, digestColLen(dp.hosts))
		for _, d := range dp.fps[j*h : (j+1)*h] {
			col = append(col, d[:]...)
		}
		out[dst] = col
	}
	return out
}

// DataPlaneForSeeded is DataPlaneFor with a per-destination seed: a
// destination whose seed column is present and well-formed (exactly
// 16×len(hosts) bytes, in hosts order — ExportColumns of a plane over
// the same host list) is decoded from the seed instead of extracted
// from the Snapshot; only the remaining destinations pay a
// successor-graph engine. Seed columns are trusted — the caller
// guarantees they came from a Snapshot that forwards identically toward
// that destination over the same hosts — and malformed or missing
// columns silently fall back to extraction, so a stale or partial seed
// degrades to correct work, not to wrong digests.
func (s *Snapshot) DataPlaneForSeeded(hosts []string, seed map[string][]byte) *DataPlane {
	dp := newDataPlane(hosts)
	colLen := digestColLen(hosts)
	forEachIndex(s.traceWorkers(), len(hosts), func(j int) {
		dst := hosts[j]
		row := dp.fps[j*len(hosts) : (j+1)*len(hosts)]
		if col, ok := seed[dst]; ok && len(col) == colLen {
			for i := range row {
				copy(row[i][:], col[i*16:])
			}
			row[j] = Digest{} // diagonal stays reserved-zero regardless
			return
		}
		e := s.transientEngineFor(dst)
		if e == nil {
			return // unknown destination: zero digests, like Trace's nil
		}
		var scratch []byte
		for i, src := range hosts {
			if src == dst {
				continue
			}
			row[i], scratch = e.digestFor(src, scratch)
		}
	})
	return dp
}

// DataPlaneOf builds a plane from an arbitrary per-pair trace function —
// for path sources that are not a Snapshot, such as an obfuscated
// topology's virtual paths. Each pair's paths are canonically sorted and
// hashed exactly as DataPlaneFor hashes a simulated pair.
func DataPlaneOf(hosts []string, trace func(src, dst string) []Path) *DataPlane {
	dp := newDataPlane(hosts)
	for j, dst := range hosts {
		for i, src := range hosts {
			if i != j {
				_, dp.fps[j*len(hosts)+i] = sortPathsByKey(trace(src, dst))
			}
		}
	}
	return dp
}

// DiffPairs returns the ordered pairs (drawn from hosts) whose path sets
// differ between two data planes, in sorted order. A pair outside a
// plane's hosts counts as the empty path set.
func DiffPairs(a, b *DataPlane, hosts []string) []Pair {
	var out []Pair
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			da, _ := a.Digest(src, dst)
			db, _ := b.Digest(src, dst)
			if da != db {
				out = append(out, Pair{Src: src, Dst: dst})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// ExactlyKeptFraction returns the fraction of ordered host pairs whose path
// sets are preserved exactly — the paper's route utility metric P_U
// (Fig. 8).
func ExactlyKeptFraction(orig, anon *DataPlane, hosts []string) float64 {
	total := len(hosts) * (len(hosts) - 1)
	if total == 0 {
		return 1
	}
	return float64(total-len(DiffPairs(orig, anon, hosts))) / float64(total)
}

// PairDigestsFor is DataPlaneFor under its former name.
//
// Deprecated: use DataPlaneFor. Kept only because the benchmark harness
// under perfbench/ still calls it.
func (s *Snapshot) PairDigestsFor(hosts []string) *DataPlane { return s.DataPlaneFor(hosts) }

// Equal reports whether two planes agree on every ordered pair of dp's
// hosts.
//
// Deprecated: use DiffPairs. Kept only because the benchmark harness
// under perfbench/ still calls it.
func (dp *DataPlane) Equal(other *DataPlane) bool { return len(dp.DiffPairs(other)) == 0 }

// DiffPairs is DiffPairs(dp, other, dp.Hosts()).
//
// Deprecated: use the DiffPairs function. Kept only because the
// benchmark harness under perfbench/ still calls it.
func (dp *DataPlane) DiffPairs(other *DataPlane) []Pair { return DiffPairs(dp, other, dp.hosts) }
