package sim

import (
	"net/netip"
	"strings"
)

// PathStatus classifies the outcome of a forwarding walk.
type PathStatus int

const (
	// Delivered means the packet reached the destination host.
	Delivered PathStatus = iota
	// Looped means the walk revisited a device (a forwarding loop).
	Looped
	// BlackHoled means a device had no route to the destination.
	BlackHoled
)

func (s PathStatus) String() string {
	switch s {
	case Delivered:
		return "delivered"
	case Looped:
		return "looped"
	case BlackHoled:
		return "blackholed"
	default:
		return "unknown"
	}
}

// Path is one forwarding path: the device sequence from source host toward
// the destination, plus the walk outcome.
type Path struct {
	Hops   []string
	Status PathStatus
}

// Key returns a canonical string for set comparisons.
func (p Path) Key() string {
	return p.Status.String() + ":" + strings.Join(p.Hops, ">")
}

// Ingress returns the first router on the path ("" if none).
func (p Path) Ingress() string {
	if len(p.Hops) >= 2 {
		return p.Hops[1]
	}
	return ""
}

// Egress returns the last router on a delivered path ("" if none).
func (p Path) Egress() string {
	if p.Status == Delivered && len(p.Hops) >= 2 {
		return p.Hops[len(p.Hops)-2]
	}
	if len(p.Hops) >= 1 && p.Status != Delivered {
		return p.Hops[len(p.Hops)-1]
	}
	return ""
}

// maxTraceDepth bounds a single walk; maxTracePaths bounds the ECMP
// fan-out collected per host pair.
const (
	maxTraceDepth = 64
	maxTracePaths = 256
)

// Trace walks the FIBs from host src toward host dst and returns every
// forwarding path (ECMP branches explored exhaustively up to
// maxTracePaths), in canonical sorted order.
func (s *Snapshot) Trace(src, dst string) []Path { return s.TraceFrom(src, dst) }

// TraceFrom is Trace with an arbitrary starting device (host or router).
// Algorithm 2 of the paper uses it to check which fake hosts remain
// reachable *from each router* after noise filters are added.
//
// The walk is served by the Snapshot's per-destination engine (see
// dataplane.go), so repeated traces toward the same destination — the
// shape of every caller — share path enumeration work. Returned paths are
// cached: callers must treat them as read-only.
func (s *Snapshot) TraceFrom(start, dst string) []Path {
	e := s.engineFor(dst)
	if e == nil {
		return nil
	}
	return e.pathsFor(start)
}

// hostAddr returns the host's interface address.
func hostAddr(n *Net, host string) netip.Addr {
	d := n.Cfg.Device(host)
	for _, i := range d.Interfaces {
		if i.Addr.IsValid() {
			return i.Addr.Addr()
		}
	}
	return netip.Addr{}
}
