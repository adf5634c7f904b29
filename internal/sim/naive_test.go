package sim

// traceNaive is the seed per-pair recursive walker, kept verbatim (plus
// the key-once canonical sort) as the differential-testing and
// benchmarking reference for the memoized engine.
func (s *Snapshot) traceNaive(start, dst string) []Path {
	dstPfx, ok := s.Net.HostPrefix[dst]
	if !ok {
		return nil
	}
	dstAddr := hostAddr(s.Net, dst)
	var out []Path
	var walk func(cur string, hops []string, seen map[string]bool)
	walk = func(cur string, hops []string, seen map[string]bool) {
		if len(out) >= maxTracePaths {
			return
		}
		hops = append(hops, cur)
		if cur == dst {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: Delivered})
			return
		}
		if seen[cur] {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: Looped})
			return
		}
		if len(hops) > maxTraceDepth {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: Looped})
			return
		}
		seen[cur] = true
		defer delete(seen, cur)
		fib := s.FIBs[cur]
		var rt *Route
		if fib != nil {
			// Host LANs are the most specific prefixes in our model, so
			// an exact hit on the destination prefix IS the LPM result;
			// the linear scan only runs for aggregated/default routes.
			if exact := fib[dstPfx]; exact != nil {
				rt = exact
			} else {
				rt = fib.Lookup(dstAddr)
			}
		}
		if rt == nil || len(rt.NextHops) == 0 {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: BlackHoled})
			return
		}
		for _, nh := range rt.NextHops {
			walk(nh.Device, hops, seen)
		}
	}
	walk(start, nil, make(map[string]bool))
	out, _ = sortPathsByKey(out)
	return out
}
