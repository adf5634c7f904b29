package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"confmask"
	"confmask/internal/anonymize"
	"confmask/internal/config"
	"confmask/internal/kdegree"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

// pipelineWorkload is a library workload: each op is one confmask.Anonymize
// call followed by the functional-equivalence check a user runs on it.
type pipelineWorkload struct {
	build func() (*config.Network, error)
	// fullVerify selects confmask.Verify (materialized data planes); the
	// alternative compares the two networks' pair-digest planes, for
	// networks where Verify does not fit in memory.
	fullVerify bool
}

var pipelines = map[string]pipelineWorkload{
	"fattree16":     {build: netgen.FatTree16},
	"multiregion32": {build: netgen.MultiRegion32x32, fullVerify: true},
}

// setupReps is how many times each worker process sets up; setup_s is
// the median over a run's workers.
const setupReps = 5

// runPipeline measures one pipeline workload in this process, repeating
// the op for the given duration (once for 0 seconds). With check set, the
// first op's output also gets the full output checks, outside the timed
// op. Elapsed is the time spent in ops, so setup and checks do not count
// against throughput. Traced, it alternates an untraced op with a traced
// replay of the same op, so the tracing overhead is measured in the same
// process.
func runPipeline(w pipelineWorkload, seed int64, seconds int, check bool, tr *tracer) *result {
	r := newResult()
	var texts map[string]string
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cfg, err := w.build()
		if err != nil {
			r.fail("generate input: %v", err)
			return r
		}
		texts = cfg.Render()
		if _, err := config.ParseNetwork(texts); err != nil { // warm-up
			r.fail("parse input: %v", err)
			return r
		}
		r.sample("setup_s", time.Since(t0).Seconds())
	}
	o := confmask.DefaultOptions()
	o.Seed = seed
	firstHash := ""
	checkOp := func(out map[string]string, label string) {
		h := configsHash(out)
		switch {
		case firstHash == "":
			firstHash = h
			r.Outputs = append(r.Outputs, h)
			if !check {
				return
			}
			for _, e := range checkOutput(texts, out, o.KR, o.KH) {
				r.fail("%s: %s", label, e)
			}
		case h != firstHash:
			r.fail("%s: output differs from the first op with the same seed (sha256 %s vs %s)", label, h, firstHash)
		}
	}

	start := time.Now()
	for op := 1; op == 1 || time.Since(start) < time.Duration(seconds)*time.Second; op++ {
		r.Attempted++
		failedBefore := r.Failed
		t0 := time.Now()
		out, _, err := confmask.Anonymize(texts, o)
		if err != nil {
			r.fail("op %d: anonymize: %v", op, err)
			continue
		}
		anonymizeS := time.Since(t0).Seconds()
		r.sample("anonymize_s", anonymizeS)
		t0 = time.Now()
		if w.fullVerify {
			err = confmask.Verify(texts, out)
		} else {
			err = verifyDigests(nil, op, -1, texts, out)
		}
		if err != nil {
			r.fail("op %d: verify: %v", op, err)
			continue
		}
		verifyS := time.Since(t0).Seconds()
		r.sample("verify_s", verifyS)
		r.Elapsed += anonymizeS + verifyS
		checkOp(out, fmt.Sprintf("op %d", op))
		if tr != nil {
			out, err = replayOp(tr, op, texts, o, w.fullVerify, false, r)
			if err != nil {
				r.fail("op %d: traced replay: %v", op, err)
			} else {
				checkOp(out, fmt.Sprintf("op %d traced replay", op))
			}
		}
		if r.Failed == failedBefore {
			r.Ops++
		}
	}
	if tr != nil {
		r.Layers = pipelineLayers(tr, r)
		r.Self = tr.selfTimes()
	}
	return r
}

// replayOp replays one op as the sequence of public layer calls that
// confmask.Anonymize and Verify make, with a span around each, plus
// stand-alone probes of the simulation and k-degree layers on the input.
// With checkpoint set, the pipeline's Checkpoint callback encodes each
// stage snapshot as JSON, as confmaskd does before journaling it.
func replayOp(tr *tracer, op int, texts map[string]string, o confmask.Options, fullVerify, checkpoint bool, r *result) (map[string]string, error) {
	probe := tr.begin("probe", "bench", op, op, -1)
	s := tr.begin("probe.parse", "config", op, op, probe)
	in, err := config.ParseNetwork(texts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("sim.simulate", "sim", op, op, probe)
	snap, err := sim.SimulateOpts(in, sim.Options{})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("sim.digest", "sim", op, op, probe)
	snap.PairDigestsFor(in.Hosts())
	tr.end(s)
	snap = nil
	view, err := sim.Build(in)
	if err != nil {
		return nil, err
	}
	g := view.Topology().RouterSubgraph()
	s = tr.begin("kdegree.anonymize", "kdegree", op, op, probe)
	kd, err := kdegree.AnonymizeParallel(g, o.KR, sim.Options{}.Workers(), rand.New(rand.NewSource(o.Seed)))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	r.sample("kdegree.fake_edges", float64(len(kd.Added)))
	tr.end(probe)

	gc0, cpu0 := gcCPU()
	out, err := tracedAnonymize(tr, op, texts, o, checkpoint, r)
	gc1, cpu1 := gcCPU()
	if err != nil {
		return nil, err
	}
	if cpu1 > cpu0 {
		r.sample("runtime.gc_cpu_fraction", (gc1-gc0)/(cpu1-cpu0))
	}
	root := tr.begin("confmask.verify", "op", op, op, -1)
	if fullVerify {
		err = tracedVerify(tr, op, root, texts, out)
	} else {
		err = verifyDigests(tr, op, root, texts, out)
	}
	tr.end(root)
	return out, err
}

// tracedAnonymize is confmask.Anonymize as its layer calls: parse, the
// anonymize pipeline (stage spans cut at each Options.Progress callback),
// and render.
func tracedAnonymize(tr *tracer, op int, texts map[string]string, o confmask.Options, checkpoint bool, r *result) (map[string]string, error) {
	root := tr.begin("confmask.anonymize", "op", op, op, -1)
	defer tr.end(root)
	s := tr.begin("config.parse", "config", op, op, root)
	in, err := config.ParseNetwork(texts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	io := anonymize.DefaultOptions()
	io.KR, io.KH, io.NoiseP, io.Seed = o.KR, o.KH, o.NoiseP, o.Seed
	stage, cur := "", -1
	io.Progress = func(name string, _ int) {
		if name == stage {
			return // another Algorithm 1 iteration of the open stage
		}
		tr.end(cur)
		stage = name
		cur = tr.begin("anonymize."+name, "anonymize", op, op, root)
	}
	cpBytes := 0
	if checkpoint {
		io.Checkpoint = func(cp *anonymize.StageCheckpoint) {
			s := tr.begin("anonymize.checkpoint", "anonymize", op, op, cur)
			b, err := json.Marshal(cp)
			tr.end(s)
			if err != nil {
				r.fail("op %d: encode %s checkpoint: %v", op, cp.Stage, err)
			}
			cpBytes += len(b)
		}
	}
	anon, rep, err := anonymize.RunContext(context.Background(), in, io)
	tr.end(cur)
	if err != nil {
		return nil, err
	}
	if checkpoint {
		r.sample("anonymize.checkpoint_bytes", float64(cpBytes))
	}
	r.sample("anonymize.equivalence_iters", float64(rep.EquivIterations))
	r.sample("anonymize.filters_added", float64(rep.EquivFilters+rep.AnonFilters))
	s = tr.begin("config.render", "config", op, op, root)
	out := anon.Render()
	tr.end(s)
	n := 0
	for _, text := range out {
		n += len(text)
	}
	r.sample("config.render_bytes", float64(n))
	return out, nil
}

// tracedVerify is confmask.Verify as its layer calls.
func tracedVerify(tr *tracer, op, root int, orig, anon map[string]string) error {
	s := tr.begin("verify.parse", "config", op, op, root)
	o, err := config.ParseNetwork(orig)
	if err != nil {
		return err
	}
	a, err := config.ParseNetwork(anon)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("verify.simulate", "sim", op, op, root)
	so, err := sim.Simulate(o)
	if err != nil {
		return err
	}
	sa, err := sim.Simulate(a)
	tr.end(s)
	if err != nil {
		return err
	}
	hosts := o.Hosts()
	s = tr.begin("sim.dataplane", "sim", op, op, root)
	po, pa := so.DataPlaneFor(hosts), sa.DataPlaneFor(hosts)
	tr.end(s)
	s = tr.begin("sim.diff", "sim", op, op, root)
	diffs := sim.DiffPairs(po, pa, hosts)
	tr.end(s)
	if len(diffs) > 0 {
		return fmt.Errorf("%d host pairs forward differently", len(diffs))
	}
	return nil
}

// verifyDigests checks functional equivalence over the original hosts by
// comparing pair-digest planes instead of materialized paths. With a nil
// tracer it is the untraced check.
func verifyDigests(tr *tracer, op, root int, orig, anon map[string]string) error {
	s := tr.begin("verify.parse", "config", op, op, root)
	o, err := config.ParseNetwork(orig)
	if err != nil {
		return err
	}
	a, err := config.ParseNetwork(anon)
	tr.end(s)
	if err != nil {
		return err
	}
	hosts := o.Hosts()
	for _, h := range hosts {
		if a.Device(h) == nil {
			return fmt.Errorf("host %s missing from output", h)
		}
	}
	s = tr.begin("verify.simulate", "sim", op, op, root)
	so, err := sim.Simulate(o)
	if err != nil {
		return err
	}
	sa, err := sim.Simulate(a)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("verify.digest", "sim", op, op, root)
	do := so.PairDigestsFor(hosts)
	so = nil
	da := sa.PairDigestsFor(hosts)
	tr.end(s)
	if !do.Equal(da) {
		return fmt.Errorf("%d host pairs forward differently", len(do.DiffPairs(da)))
	}
	return nil
}

// pipelineLayers turns the spans and per-op counts into per-layer metrics
// (medians over traced ops), plus the coverage and overhead figures.
func pipelineLayers(tr *tracer, r *result) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{"config.parse", "config.render", "sim.simulate", "sim.digest",
		"sim.dataplane", "sim.diff", "kdegree.anonymize", "anonymize.preprocess",
		"anonymize.topology", "anonymize.equivalence", "anonymize.anonymity", "anonymize.checkpoint"} {
		m[name+"_s"] = median(tr.perOp(name, false))
	}
	for _, name := range []string{"sim.simulate", "sim.digest", "sim.dataplane", "anonymize.preprocess",
		"anonymize.topology", "anonymize.equivalence", "anonymize.anonymity"} {
		m[name+"_alloc_bytes"] = median(tr.perOp(name, true))
	}
	for _, name := range []string{"config.render_bytes", "kdegree.fake_edges", "anonymize.equivalence_iters",
		"anonymize.filters_added", "anonymize.checkpoint_bytes", "runtime.gc_cpu_fraction"} {
		m[name] = median(r.Samples[name])
	}
	ops, children := tr.childSum("confmask.anonymize")
	m["trace.op_s"] = median(ops)
	m["trace.untraced_op_s"] = median(r.Samples["anonymize_s"])
	m["trace.unattributed_s"] = median(ops) - median(children)
	m["trace.overhead_s"] = m["trace.op_s"] - m["trace.untraced_op_s"]
	return m
}
