package sim

import (
	"net/netip"
	"runtime"
	"sort"
	"sync"
)

// This file is the per-destination data-plane engine. For a fixed
// destination, every device's forwarding choice is a single FIB lookup, so
// the devices form a successor graph toward that destination; the path set
// from any source is the source's suffix set in that graph. The engine
// computes each device's suffix set once via a memoized DFS instead of
// re-walking shared path suffixes for every source — the recursive
// per-pair walker redid exactly that work for every source behind the same
// gateway, and re-derived every Path.Key O(log n) times inside its sort
// comparator on top.
//
// Memoization is only sound where the walk outcome is independent of how
// the walk arrived:
//
//   - Around forwarding loops the recursive walker truncates a path when
//     it revisits a device already on the *current* walk, so the emitted
//     hop sequence depends on the entry point. A cycle-taint pass (DFS
//     over the successor graph) marks every node on or upstream of a
//     cycle as loopy; loopy nodes fall back to the exact recursive walk.
//   - Past maxTraceDepth the walker truncates with Looped status, so a
//     suffix is only spliced in when prefix+suffix provably fits the
//     depth budget (maxLen, the longest memoized suffix, is tracked per
//     node). Deeper prefixes fall back too.
//
// Everything else — ECMP branch order, the maxTracePaths cap, Delivered /
// Looped / BlackHoled classification, final canonical sort — reproduces
// the recursive walker byte for byte; the dataplane tests pin that on the
// evaluation networks and on randomized topologies with injected loops
// and black holes.
//
// Devices are addressed by dense index (the Snapshot's shared device
// table) rather than name, and suffix sets are stored structurally (each
// entry references the child entry it extends) rather than as materialized
// hop lists, so building a destination's memo costs a handful of
// allocations per node instead of several per path.

// nodeKind classifies a device in one destination's successor graph.
type nodeKind int8

const (
	// transitNode forwards toward the destination via succ.
	transitNode nodeKind = iota
	// deliveredNode is the destination itself.
	deliveredNode
	// blackholeNode has no route to the destination (including the
	// Null0 discard pseudo-device and devices outside the network).
	blackholeNode
)

// destNode is one device's state in a destination's successor graph.
type destNode struct {
	kind nodeKind
	// loopy marks nodes on a forwarding cycle or upstream of one; their
	// suffix sets depend on walk history and are never memoized.
	loopy bool
	// maxLen is the longest memoized suffix (hop count including this
	// node); valid only for non-loopy nodes. A suffix set is spliced
	// into a walk only when prefixLen+maxLen fits maxTraceDepth.
	maxLen int
	// succ is the ordered next-hop index list — rt.NextHops order, the
	// order the recursive walker branches in.
	succ []int32
	// memo is the node's path-suffix set (each suffix starts at this
	// node), capped at maxTracePaths; nil until built. Non-loopy suffix
	// sets are never empty, so nil is unambiguous.
	memo *memoSet
}

// memoSet is one node's suffix set in DFS emission order (the order the
// recursive walker enumerates branches, which is what the maxTracePaths
// truncation is defined over), plus a permutation sorting it canonically.
//
// Suffixes are stored structurally, not materialized: entry j is the
// node's own name followed by entry sub[j] of node child[j] (child < 0
// terminates). Hops and Path.Key strings therefore exist nowhere in the
// memo — a suffix set costs five parallel slices per node instead of a
// string per hop per path, and the big win is at interior nodes, whose
// suffixes are only ever building blocks. Sources materialize their own
// path lists once in viewOf.
//
// The canonical order is built incrementally from the children's:
// prepending the same device to every suffix of a child rewrites each key
// from "<status>:<hops>" to "<status>:<dev>><hops>", which changes no
// pairwise comparison (status strings are mutually non-prefix and compared
// identically in both forms, and within one status the "<dev>>" prefix is
// shared) — so the parent's canonical order is a k-way merge of the
// children's, comparing child suffixes directly. cmpSuffix performs that
// comparison over the virtual joined strings without building them.
type memoSet struct {
	status []PathStatus
	child  []int32 // suffix continuation node, -1 when this entry is terminal
	sub    []int32 // entry index within child's memo
	length []int32 // hop count including this node
	order  []int32 // entry indices, canonically sorted
}

// statusOrder gives each Status the rank its String() has in lexicographic
// order ("blackholed" < "delivered" < "looped"), so suffix comparisons
// match Path.Key comparisons without building the strings.
func statusOrder(s PathStatus) int {
	switch s {
	case BlackHoled:
		return 0
	case Delivered:
		return 1
	default:
		return 2
	}
}

// joinIter streams the chunks of a memoized suffix's virtually joined hop
// string: name, ">", name, ">", ..., name.
type joinIter struct {
	e        *destEngine
	node, ei int32
	sep      bool
}

func (it *joinIter) next() (string, bool) {
	if it.sep {
		it.sep = false
		return ">", true
	}
	if it.node < 0 {
		return "", false
	}
	name := it.e.nameAt[it.node]
	m := it.e.nodes[it.node].memo
	it.node, it.ei = m.child[it.ei], m.sub[it.ei]
	it.sep = it.node >= 0
	return name, true
}

// cmpSuffix compares entry ai of node an's memo against entry bi of node
// bn's, in exactly the order their Path.Key strings would compare. Sibling
// suffixes diverge at the first hop (the two child devices), so the chunk
// walk almost always terminates immediately.
func (e *destEngine) cmpSuffix(an, ai, bn, bi int32) int {
	ma, mb := e.nodes[an].memo, e.nodes[bn].memo
	if ra, rb := statusOrder(ma.status[ai]), statusOrder(mb.status[bi]); ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	ita := joinIter{e: e, node: an, ei: ai}
	itb := joinIter{e: e, node: bn, ei: bi}
	ca, oka := ita.next()
	cb, okb := itb.next()
	for {
		switch {
		case !oka && !okb:
			return 0
		case !oka:
			return -1
		case !okb:
			return 1
		}
		n := len(ca)
		if len(cb) < n {
			n = len(cb)
		}
		if pa, pb := ca[:n], cb[:n]; pa != pb {
			if pa < pb {
				return -1
			}
			return 1
		}
		ca, cb = ca[n:], cb[n:]
		if len(ca) == 0 {
			ca, oka = ita.next()
		}
		if len(cb) == 0 {
			cb, okb = itb.next()
		}
	}
}

// materialize builds the hop list of one memoized suffix.
func (e *destEngine) materialize(node, ei int32) []string {
	hops := make([]string, e.nodes[node].memo.length[ei])
	for k := 0; node >= 0; k++ {
		hops[k] = e.nameAt[node]
		m := e.nodes[node].memo
		node, ei = m.child[ei], m.sub[ei]
	}
	return hops
}

// appendSuffix appends one memoized suffix's hops to dst.
func (e *destEngine) appendSuffix(dst []string, node, ei int32) []string {
	for node >= 0 {
		dst = append(dst, e.nameAt[node])
		m := e.nodes[node].memo
		node, ei = m.child[ei], m.sub[ei]
	}
	return dst
}

// viewOf materializes a node's canonical (sorted) path list from its
// memo. Callers hold mu.
func (e *destEngine) viewOf(i int32) []Path {
	m := e.nodes[i].memo
	ps := make([]Path, len(m.order))
	for k, j := range m.order {
		ps[k] = Path{Hops: e.materialize(i, j), Status: m.status[j]}
	}
	return ps
}

// digestFor returns only the fingerprint of the canonical path set from
// src, streaming the key bytes out of the suffix memos without
// materializing a single hop list. scratch is a caller-owned reusable
// buffer, returned (possibly grown) for the next call. Nothing is cached
// per source: digest-only extraction queries each source exactly once per
// destination, on an engine it then drops.
func (e *destEngine) digestFor(src string, scratch []byte) (Digest, []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.built {
		e.build()
	}
	i := e.indexOf(src)
	if n := &e.nodes[i]; n.loopy || n.maxLen > maxTraceDepth {
		// Loop/deep fallback: the walk must enumerate paths anyway.
		_, fp := sortPathsByKey(e.trace(i))
		return fp, scratch
	}
	m := e.memoOf(i)
	buf := scratch[:0]
	for k, j := range m.order {
		if k > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, m.status[j].String()...)
		buf = append(buf, ':')
		it := joinIter{e: e, node: i, ei: j}
		for chunk, ok := it.next(); ok; chunk, ok = it.next() {
			buf = append(buf, chunk...)
		}
	}
	return digestOfBytes(buf), buf[:0]
}

// delivInfo is one node's delivered-reachability census over its capped
// suffix set: the number of suffixes the maxTracePaths cap admits (count)
// and whether any admitted suffix is Delivered (del). It mirrors memoOf's
// cap arithmetic exactly — child c contributes min(len(c), cap-total)
// DFS-ordered entries — without building the memo, so a delivery check is
// O(nodes) per destination instead of O(paths × hops).
type delivInfo struct {
	count int32
	del   bool
}

// delivInfoOf computes (caching) the census for a non-loopy node whose
// downstream region is a DAG; the recursion is bounded by maxLen, like
// memoOf. Callers hold mu.
func (e *destEngine) delivInfoOf(i int32) delivInfo {
	for len(e.dinfoOK) < len(e.nodes) {
		// Sized to the node table, which indexOf may have grown since the
		// last census (out-of-config trace starts).
		e.dinfoOK = append(e.dinfoOK, false)
		e.dinfo = append(e.dinfo, delivInfo{})
	}
	if e.dinfoOK[i] {
		return e.dinfo[i]
	}
	n := &e.nodes[i]
	var di delivInfo
	switch n.kind {
	case deliveredNode:
		di = delivInfo{count: 1, del: true}
	case blackholeNode:
		di = delivInfo{count: 1}
	default:
		total := int32(0)
		for _, s := range n.succ {
			sub := e.delivInfoOf(s)
			c := sub.count
			if total+c > maxTracePaths {
				c = maxTracePaths - total
			}
			if c == sub.count {
				// Whole child admitted: its census applies as-is.
				di.del = di.del || sub.del
			} else if c > 0 && sub.del {
				// Cap truncates this child mid-way: whether a Delivered
				// suffix survives depends on its position in the child's
				// DFS order, so fall back to the memo for the truncated
				// child alone (still cap-bounded work).
				m := e.memoOf(s)
				for _, st := range m.status[:c] {
					if st == Delivered {
						di.del = true
						break
					}
				}
			}
			total += c
			if total >= maxTracePaths {
				break
			}
		}
		di.count = total
	}
	e.dinfoOK[i] = true
	e.dinfo[i] = di
	return di
}

// deliveredTraceLocked is the loop/deep fallback for delivered-only
// queries: the exact trace enumeration — same suffix-splice condition,
// same maxTracePaths / maxTraceDepth truncation, same branch order — but
// tracking only the emitted-path count and whether any emitted path is
// Delivered, so no hop list, Path value, or key string is ever built.
// (The repair loop of Algorithm 2 lives here: noise filters make
// per-router OSPF choices inconsistent, so the twinned network is full
// of forwarding loops and nearly every source takes this fallback.)
// Returns as soon as a Delivered path is found: later paths cannot
// retract delivery. Callers hold mu.
func (e *destEngine) deliveredTraceLocked(start int32) bool {
	onStack := make([]bool, len(e.nodes))
	emitted := int32(0)
	del := false
	var walk func(cur int32, depth int)
	walk = func(cur int32, depth int) {
		if del || emitted >= maxTracePaths {
			return
		}
		n := &e.nodes[cur]
		if !n.loopy && depth+n.maxLen <= maxTraceDepth {
			// Suffix splice: trace emits min(len(memo), cap-emitted)
			// entries of the node's DFS-ordered suffix set. The census
			// count is exactly the memo length, so the whole-set case
			// needs no memo at all; a cap truncation scans the memo's
			// status prefix, like delivInfoOf's truncated-child case.
			need := maxTracePaths - emitted
			di := e.delivInfoOf(cur)
			if di.count <= need {
				emitted += di.count
				del = del || di.del
				return
			}
			if di.del {
				for _, st := range e.memoOf(cur).status[:need] {
					if st == Delivered {
						del = true
						break
					}
				}
			}
			emitted = maxTracePaths
			return
		}
		depth++
		if n.kind == deliveredNode {
			emitted++
			del = true
			return
		}
		// Walker truncations each emit exactly one non-Delivered path
		// (Looped on revisit or depth, BlackHoled on no-route), so the
		// distinctions collapse for a delivered-only count.
		if onStack[cur] || depth > maxTraceDepth || n.kind == blackholeNode {
			emitted++
			return
		}
		onStack[cur] = true
		for _, s := range n.succ {
			walk(s, depth)
		}
		onStack[cur] = false
	}
	walk(start, 0)
	return del
}

// deliveredFromLocked reports whether at least one path from src toward
// the destination is Delivered — exactly delivered-status membership in
// pathsForLocked(src), via the census for the memoizable region and the
// count-only trace for loopy/deep sources. Callers hold mu.
func (e *destEngine) deliveredFromLocked(src string) bool {
	if ps, ok := e.bySrc[src]; ok {
		for _, p := range ps {
			if p.Status == Delivered {
				return true
			}
		}
		return false
	}
	if !e.built {
		e.build()
	}
	i := e.indexOf(src)
	if n := &e.nodes[i]; n.loopy || n.maxLen > maxTraceDepth {
		return e.deliveredTraceLocked(i)
	}
	return e.delivInfoOf(i).del
}

// DeliveredFrom reports, for each source, whether at least one forwarding
// path from it toward dst is delivered — element i answers for srcs[i],
// with the exact semantics of scanning TraceFrom(srcs[i], dst) for a
// Delivered path (including the maxTracePaths truncation), computed
// without materializing hop lists for the acyclic in-depth region.
// Unknown destinations yield all-false, like TraceFrom's nil result.
func (s *Snapshot) DeliveredFrom(dst string, srcs []string) []bool {
	out := make([]bool, len(srcs))
	e := s.engineFor(dst)
	if e == nil {
		return out
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, src := range srcs {
		out[i] = e.deliveredFromLocked(src)
	}
	return out
}

// destEngine holds one destination's successor graph, per-node suffix
// memos, and finished per-source results. All lazy state is guarded by mu
// so concurrent TraceFrom calls on the same destination are safe; distinct
// destinations never share an engine.
type destEngine struct {
	snap    *Snapshot
	dst     string
	dstPfx  netip.Prefix
	dstAddr netip.Addr

	mu    sync.Mutex
	built bool
	// nameAt/idxOf map between device names and node indices. idxOf is
	// the Snapshot's shared (read-only) table covering configured
	// devices; out-of-config devices reached as successors or trace
	// starts (e.g. the Null0 discard device) get engine-local indices in
	// extra and append to nameAt/nodes.
	nameAt []string
	idxOf  map[string]int32
	extra  map[string]int32
	nodes  []destNode
	// bySrc caches finished per-source traces, canonically sorted.
	bySrc map[string][]Path
	// dinfo/dinfoOK cache the per-node delivered census (see delivInfo),
	// filled lazily per node like the suffix memos and re-grown when
	// indexOf appends out-of-config nodes.
	dinfo   []delivInfo
	dinfoOK []bool
	// failRes caches finished what-if traces per (failure, src); see
	// whatif.go.
	failRes map[string][]Path
}

// deviceIndex returns the Snapshot's shared device table (built once,
// race-free across concurrently building engines): the configured device
// names and the name → dense index map.
func (s *Snapshot) deviceIndex() ([]string, map[string]int32) {
	s.devOnce.Do(func() {
		names := s.Net.Cfg.Names()
		idx := make(map[string]int32, len(names))
		for i, name := range names {
			idx[name] = int32(i)
		}
		s.devNames, s.devIdx = names, idx
	})
	return s.devNames, s.devIdx
}

// Devices returns every configured device name in the Snapshot's dense
// device-table order. The slice is shared with the data-plane engines:
// callers must treat it as read-only.
func (s *Snapshot) Devices() []string {
	names, _ := s.deviceIndex()
	return names
}

// HasDevice reports whether name is a configured device of the network.
func (s *Snapshot) HasDevice(name string) bool {
	_, idx := s.deviceIndex()
	_, ok := idx[name]
	return ok
}

// Hosts returns the network's host device names in sorted order.
func (s *Snapshot) Hosts() []string { return s.Net.Cfg.Hosts() }

// engineFor returns the Snapshot's cached engine for dst, creating it on
// first use; nil when dst is not a known host. The engine's graph is
// derived lazily on the first trace, so creating engines is cheap and the
// expensive per-destination analysis happens on the worker that owns the
// destination.
func (s *Snapshot) engineFor(dst string) *destEngine {
	s.destMu.Lock()
	defer s.destMu.Unlock()
	if s.destEngines == nil {
		s.destEngines = make(map[string]*destEngine)
	}
	e, ok := s.destEngines[dst]
	if !ok {
		if pfx, known := s.Net.HostPrefix[dst]; known {
			e = &destEngine{snap: s, dst: dst, dstPfx: pfx, dstAddr: hostAddr(s.Net, dst)}
		}
		s.destEngines[dst] = e // nil for unknown destinations, cached too
	}
	return e
}

// transientEngineFor builds an engine for dst without registering it in
// the Snapshot's cache: digest-only extraction (DataPlaneFor) creates
// one engine per destination and drops it as soon as that destination's
// column is hashed, so the successor graph and suffix-memo storage are
// reclaimed instead of accumulating one retained engine per host. Returns
// nil when dst is not a known host, like engineFor.
func (s *Snapshot) transientEngineFor(dst string) *destEngine {
	pfx, known := s.Net.HostPrefix[dst]
	if !known {
		return nil
	}
	return &destEngine{snap: s, dst: dst, dstPfx: pfx, dstAddr: hostAddr(s.Net, dst)}
}

// traceWorkers resolves the worker-pool size for destination-sharded
// extraction: the Parallelism the Snapshot was simulated with, or
// GOMAXPROCS for Snapshots assembled without options.
func (s *Snapshot) traceWorkers() int {
	if s.workers > 0 {
		return s.workers
	}
	return runtime.GOMAXPROCS(0)
}

// pathsFor returns the canonical path set from src toward the engine's
// destination, computing it at most once per source.
//
// The common case — src not on or upstream of a forwarding loop, longest
// path within the depth budget — sorts the src node's memoized suffix set
// directly: the Path values are shared with every other source whose walk
// passes through src, which is what makes extraction cheaper than
// per-pair walking. The loop/deep fallback runs the hybrid recursive walk
// instead.
func (e *destEngine) pathsFor(src string) []Path {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pathsForLocked(src)
}

// pathsForLocked is pathsFor for callers already holding mu.
func (e *destEngine) pathsForLocked(src string) []Path {
	if ps, ok := e.bySrc[src]; ok {
		return ps
	}
	if !e.built {
		e.build()
	}
	var ps []Path
	i := e.indexOf(src)
	if n := &e.nodes[i]; !n.loopy && n.maxLen <= maxTraceDepth {
		e.memoOf(i)
		ps = e.viewOf(i)
	} else {
		ps, _ = sortPathsByKey(e.trace(i))
	}
	if e.bySrc == nil {
		e.bySrc = make(map[string][]Path)
	}
	e.bySrc[src] = ps
	return ps
}

// routeToward replicates the recursive walker's FIB choice: an exact hit
// on the destination prefix is the LPM result (host LANs are the most
// specific prefixes in the model); the linear scan only runs for
// aggregated/default routes.
func (e *destEngine) routeToward(dev string) *Route {
	fib := e.snap.FIBs[dev]
	if fib == nil {
		return nil
	}
	if exact := fib[e.dstPfx]; exact != nil {
		return exact
	}
	return fib.Lookup(e.dstAddr)
}

// classify derives a device's node kind and successor names.
func (e *destEngine) classify(dev string) (nodeKind, []NextHop) {
	if dev == e.dst {
		return deliveredNode, nil
	}
	rt := e.routeToward(dev)
	if rt == nil || len(rt.NextHops) == 0 {
		return blackholeNode, nil
	}
	return transitNode, rt.NextHops
}

// indexOf returns (allocating on demand) the node index for a device,
// including devices outside the configured set — the walker treats those
// as black holes, exactly like the recursive walker's nil-FIB case.
// Callers hold mu; any held *destNode pointer is invalid afterwards.
func (e *destEngine) indexOf(dev string) int32 {
	if i, ok := e.idxOf[dev]; ok {
		return i
	}
	if i, ok := e.extra[dev]; ok {
		return i
	}
	kind, nhs := e.classify(dev)
	var succ []int32
	if kind == transitNode {
		succ = make([]int32, len(nhs))
		for k, nh := range nhs {
			succ[k] = e.indexOf(nh.Device)
		}
	}
	i := int32(len(e.nodes))
	e.nodes = append(e.nodes, destNode{kind: kind, succ: succ})
	e.nameAt = append(e.nameAt, dev)
	if e.extra == nil {
		e.extra = make(map[string]int32)
	}
	e.extra[dev] = i
	return i
}

// build derives the successor graph over every configured device and runs
// the cycle-taint + max-suffix-length analysis. Callers hold mu.
func (e *destEngine) build() {
	e.built = true
	names, idx := e.snap.deviceIndex()
	e.idxOf = idx
	e.nameAt = append(make([]string, 0, len(names)+1), names...)
	e.nodes = make([]destNode, len(names), len(names)+1)
	nhLists := make([][]NextHop, len(names))
	for i, name := range names {
		e.nodes[i].kind, nhLists[i] = e.classify(name)
	}
	for i, nhs := range nhLists {
		if len(nhs) == 0 {
			continue
		}
		succ := make([]int32, len(nhs))
		for k, nh := range nhs {
			// indexOf appends out-of-config successors (the Null0
			// discard device) as terminal black holes.
			succ[k] = e.indexOf(nh.Device)
		}
		e.nodes[i].succ = succ
	}

	// Iterative three-color DFS. A gray target is a back edge: the target
	// is on a cycle, and the current node reaches it. Propagation happens
	// at pop time — every successor is finalized (or gray, handled at the
	// encounter) by then — which also finalizes maxLen for the non-loopy
	// region in the same pass.
	const (
		white = uint8(0)
		gray  = uint8(1)
		black = uint8(2)
	)
	color := make([]uint8, len(e.nodes))
	type frame struct {
		node int32
		next int
	}
	var stack []frame
	for root := int32(0); root < int32(len(e.nodes)); root++ {
		if color[root] != white {
			continue
		}
		stack = append(stack[:0], frame{node: root})
		color[root] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			n := &e.nodes[f.node]
			if f.next < len(n.succ) {
				s := n.succ[f.next]
				f.next++
				sn := &e.nodes[s]
				switch color[s] {
				case white:
					color[s] = gray
					stack = append(stack, frame{node: s})
				case gray:
					// Back edge: s is on a cycle and f.node reaches it.
					sn.loopy = true
					n.loopy = true
				default: // black: finalized
					if sn.loopy {
						n.loopy = true
					}
				}
				continue
			}
			// Finalize.
			maxLen := 1
			for _, s := range n.succ {
				sn := &e.nodes[s]
				if sn.loopy || color[s] == gray {
					n.loopy = true
				}
				if sn.maxLen >= maxLen {
					maxLen = sn.maxLen + 1
				}
			}
			if !n.loopy {
				n.maxLen = maxLen
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
}

// memoOf returns (building on demand) a node's suffix set, capped at
// maxTracePaths in DFS emission order (exactly the recursive walker's
// first-N truncation, since children are concatenated in next-hop order
// and each child's memo is itself DFS-ordered). Entries only reference the
// child entry they extend; the canonical order derives incrementally from
// the children (see memoSet). Only called for non-loopy nodes, whose
// downstream region is a DAG, so the recursion is bounded by maxLen.
// Callers hold mu.
func (e *destEngine) memoOf(i int32) *memoSet {
	n := &e.nodes[i]
	if n.memo != nil {
		return n.memo
	}
	if n.kind != transitNode {
		status := BlackHoled
		if n.kind == deliveredNode {
			status = Delivered
		}
		n.memo = &memoSet{
			status: []PathStatus{status},
			child:  []int32{-1},
			sub:    []int32{-1},
			length: []int32{1},
			order:  []int32{0},
		}
		return n.memo
	}

	// Pass 1: resolve children and apply the global path cap. Child c
	// contributes its first cnt[c] DFS entries — the walker's first-N
	// truncation.
	subs := make([]*memoSet, len(n.succ))
	for k, s := range n.succ {
		subs[k] = e.memoOf(s)
	}
	cnt := make([]int, len(subs))
	offset := make([]int32, len(subs))
	total := 0
	for ci, sub := range subs {
		c := len(sub.status)
		if total+c > maxTracePaths {
			c = maxTracePaths - total
		}
		cnt[ci] = c
		offset[ci] = int32(total)
		total += c
	}

	// Pass 2: emit in DFS order.
	m := &memoSet{
		status: make([]PathStatus, 0, total),
		child:  make([]int32, 0, total),
		sub:    make([]int32, 0, total),
		length: make([]int32, 0, total),
	}
	for ci, sub := range subs {
		c := n.succ[ci]
		for di := 0; di < cnt[ci]; di++ {
			m.status = append(m.status, sub.status[di])
			m.child = append(m.child, c)
			m.sub = append(m.sub, int32(di))
			m.length = append(m.length, sub.length[di]+1)
		}
	}

	// Pass 3: canonical order via k-way merge of the children's sorted
	// orders, comparing child suffixes (equivalent to parent-key order).
	m.order = make([]int32, 0, total)
	ptrs := make([]int, len(subs))
	for len(m.order) < total {
		best := -1
		for ci, sub := range subs {
			p := ptrs[ci]
			// Skip entries the cap excluded from this node.
			for p < len(sub.order) && int(sub.order[p]) >= cnt[ci] {
				p++
			}
			ptrs[ci] = p
			if p >= len(sub.order) {
				continue
			}
			if best < 0 || e.cmpSuffix(n.succ[ci], sub.order[p], n.succ[best], subs[best].order[ptrs[best]]) < 0 {
				best = ci
			}
		}
		m.order = append(m.order, offset[best]+subs[best].order[ptrs[best]])
		ptrs[best]++
	}
	n.memo = m
	return m
}

// trace is the loop/deep fallback: it enumerates every forwarding path
// from the start node with the exact recursive-walker semantics, splicing
// memoized suffix sets back in wherever that provably matches (node not
// loopy, depth budget fits, and — by the taint analysis — no suffix can
// revisit a walk ancestor). Output order is the walker's DFS order,
// unsorted. Callers hold mu.
func (e *destEngine) trace(start int32) []Path {
	var out []Path
	onStack := make([]bool, len(e.nodes))
	var walk func(cur int32, hops []string)
	walk = func(cur int32, hops []string) {
		if len(out) >= maxTracePaths {
			return
		}
		n := &e.nodes[cur]
		if !n.loopy && len(hops)+n.maxLen <= maxTraceDepth {
			m := e.memoOf(cur)
			for j := range m.status {
				if len(out) >= maxTracePaths {
					return
				}
				full := make([]string, 0, len(hops)+int(m.length[j]))
				full = append(full, hops...)
				full = e.appendSuffix(full, cur, int32(j))
				out = append(out, Path{Hops: full, Status: m.status[j]})
			}
			return
		}
		// Otherwise: the seed recursive walk, check for check.
		hops = append(hops, e.nameAt[cur])
		if n.kind == deliveredNode {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: Delivered})
			return
		}
		if onStack[cur] {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: Looped})
			return
		}
		if len(hops) > maxTraceDepth {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: Looped})
			return
		}
		if n.kind == blackholeNode {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: BlackHoled})
			return
		}
		onStack[cur] = true
		for _, s := range n.succ {
			walk(s, hops)
		}
		onStack[cur] = false
	}
	walk(start, nil)
	return out
}

// sortPathsByKey orders paths canonically, deriving each Key exactly once
// (the recursive walker recomputed both keys inside the comparator), and
// returns the 128-bit canonical fingerprint alongside. The sorted keys
// are hashed through one exactly-sized transient buffer instead of being
// joined into a retained string. The input slice is not reordered —
// memoized slices are shared across sources.
func sortPathsByKey(ps []Path) ([]Path, Digest) {
	if len(ps) == 0 {
		return ps, Digest{}
	}
	keys := make([]string, len(ps))
	idx := make([]int, len(ps))
	size := len(ps) - 1
	for i, p := range ps {
		keys[i] = p.Key()
		idx[i] = i
		size += len(keys[i])
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sorted := make([]Path, len(ps))
	buf := make([]byte, 0, size)
	for i, j := range idx {
		sorted[i] = ps[j]
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, keys[j]...)
	}
	return sorted, digestOfBytes(buf)
}
