package main

// analytic.go — the sweep-grid and region-curves workloads, and the probes
// that measure their layers (bicoop → sweep → protocols → simplex, plus
// region hulls) by calling each layer directly on the traced requests'
// inputs.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bicoop"
	"bicoop/internal/protocols"
	"bicoop/internal/region"
	"bicoop/internal/simplex"
	"bicoop/internal/sweep"
)

// primeEngine runs one point per protocol and bound on every worker, so the
// evaluator pool and compiled templates exist before the first request.
func primeEngine(ctx context.Context, eng *bicoop.Engine) error {
	for _, b := range []bicoop.Bound{bicoop.Inner, bicoop.Outer} {
		spec := bicoop.SweepSpec{Bound: b, PowersDB: []float64{0, 10}, Base: bicoop.Scenario{GarDB: 3, GbrDB: 3}}
		if _, err := eng.SweepAll(ctx, spec); err != nil {
			return err
		}
	}
	return nil
}

// ---- sweep-grid ----

type sweepGrid struct {
	seed int64
	eng  *bicoop.Engine
	sums []float64
	// inner holds the sums of the inner-bound request of pair innerPair, for
	// the point-by-point bound comparison when its outer twin completes.
	inner     []float64
	innerPair int
}

func setupSweepGrid(ctx context.Context, seed int64, _ string) (instance, error) {
	eng := bicoop.NewEngine(bicoop.WithWorkers(nproc))
	if err := primeEngine(ctx, eng); err != nil {
		return nil, err
	}
	n := sweepGridSpec(seed, 0).Size()
	return &sweepGrid{seed: seed, eng: eng, sums: make([]float64, n), inner: make([]float64, n), innerPair: -1}, nil
}

func (w *sweepGrid) close() error { return nil }

func (w *sweepGrid) request(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	spec := sweepGridSpec(w.seed, i)
	root := tr.begin("request", 0, int64(i))
	call := tr.begin("bicoop.Engine.Sweep", root.ID, int64(i))
	t0 := time.Now()
	err := w.eng.Sweep(ctx, spec, func(pt bicoop.SweepPoint) error {
		w.sums[pt.Index] = pt.Result.Sum
		return nil
	})
	lat := time.Since(t0)
	tr.end(call)
	if err == nil {
		orc := tr.begin("oracle", root.ID, int64(i))
		err = w.check(spec, i)
		tr.end(orc)
	}
	tr.end(root)
	return lat, err
}

// check applies the sweep oracles to the request's sums: HBC dominance at
// every scenario, a seeded sample of points against the cold reference,
// and — on the outer half of a pair — inner ≤ outer and MABC tightness.
func (w *sweepGrid) check(spec bicoop.SweepSpec, i int) error {
	np := len(spec.Protocols)
	nScen := len(w.sums) / np
	for s := range nScen {
		if err := checkDominance(w.sums[s*np : (s+1)*np]); err != nil {
			return fmt.Errorf("request %d scenario %d: %w", i, s, err)
		}
	}
	r := rngFor(w.seed, streamOracle, uint64(i))
	for range 6 {
		k := r.Intn(len(w.sums))
		s := k / np
		pl := spec.Placements[s%len(spec.Placements)]
		scen, err := pl.Scenario(spec.PowersDB[s/len(spec.Placements)])
		if err != nil {
			return err
		}
		if err := checkCold(spec.Protocols[k%np], spec.Bound, scen, w.sums[k]); err != nil {
			return fmt.Errorf("request %d point %d: %w", i, k, err)
		}
	}
	if spec.Bound == bicoop.Inner {
		copy(w.inner, w.sums)
		w.innerPair = i / 2
		return nil
	}
	if w.innerPair != i/2 {
		return nil // the inner twin ran in another window
	}
	for s := range nScen {
		if err := checkBounds(w.inner[s*np:(s+1)*np], w.sums[s*np:(s+1)*np]); err != nil {
			return fmt.Errorf("request %d scenario %d: %w", i, s, err)
		}
	}
	return nil
}

// internalSweepSpec mirrors the facade's conversion of a SweepSpec.
func internalSweepSpec(spec bicoop.SweepSpec) sweep.Spec {
	out := sweep.Spec{Bound: internalBound(spec.Bound), PowersDB: spec.PowersDB, Base: sweep.Scenario(spec.Base)}
	for _, p := range spec.Protocols {
		out.Protocols = append(out.Protocols, internalProto(p))
	}
	for _, pl := range spec.Placements {
		out.Placements = append(out.Placements, sweep.Placement{Pos: pl.Pos, Exponent: pl.Exponent, GabDB: pl.GabDB})
	}
	return out
}

// gridScenarios lists a sweep spec's (power, placement) scenarios in
// enumeration order.
func gridScenarios(spec bicoop.SweepSpec) ([]bicoop.Scenario, error) {
	var out []bicoop.Scenario
	for _, pdb := range spec.PowersDB {
		for _, pl := range spec.Placements {
			s, err := pl.Scenario(pdb)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// probeAcc accumulates per-layer measurements across probed requests.
type probeAcc struct {
	reqs                 int
	engineMS, internalMS float64
	busyMS, wallMS       float64
	selfMS               float64
	protoNS              [5]float64
	protoN               [5]int
	warmNS, coldNS       float64
	warmN                int
	lpNS                 float64
	lpPivots, lpN        int
	hullUS               float64
	vertices, curves     int
}

func (a *probeAcc) perReq(x float64) float64 { return x / float64(max(a.reqs, 1)) }

// probeProtocols times Evaluator.WeightedRate for one protocol over an
// ordered sequence of (scenario, weight) pairs, warm-started as the sweep
// core runs it (reset every sweep.ChunkSize solves). It returns the summed
// solve time and the optimal rate pairs.
func probeProtocols(ev *protocols.Evaluator, p protocols.Protocol, b protocols.Bound, lis []protocols.LinkInfos, mus [][2]float64, warm bool) (time.Duration, []region.Point, error) {
	ev.SetWarmStart(warm)
	defer ev.SetWarmStart(false)
	pts := make([]region.Point, len(lis))
	var total time.Duration
	for k := range lis {
		if k%sweep.ChunkSize == 0 {
			ev.ResetWarmStart()
		}
		t0 := time.Now()
		opt, err := ev.WeightedRateLinks(p, b, lis[k], mus[k][0], mus[k][1])
		total += time.Since(t0)
		if err != nil {
			return 0, nil, err
		}
		pts[k] = region.Point{Ra: opt.Rates.Ra, Rb: opt.Rates.Rb}
	}
	return total, pts, nil
}

// lpOf builds the weighted-rate LP of a compiled bound: variables
// [Ra, Rb, Δ1..ΔL], one row per constraint Ra·a + Rb·b − Σ capℓ·Δℓ ≤ 0,
// durations summing to one.
func lpOf(s protocols.Spec, muA, muB float64) simplex.Problem {
	n := 2 + s.Phases
	p := simplex.Problem{C: make([]float64, n), AEq: [][]float64{make([]float64, n)}, BEq: []float64{1}}
	p.C[0], p.C[1] = muA, muB
	for _, con := range s.Cons {
		row := make([]float64, n)
		row[0], row[1] = con.CoefRa, con.CoefRb
		for l := 0; l < s.Phases && l < len(con.PhaseCap); l++ {
			row[2+l] = -con.PhaseCap[l]
		}
		p.AUb = append(p.AUb, row)
		p.BUb = append(p.BUb, 0)
	}
	for l := range s.Phases {
		p.AEq[0][2+l] = 1
	}
	return p
}

// probeSimplex solves the LPs of the given points with Problem.SolveIn on
// one reused workspace, accumulating time and exact pivot counts.
func (a *probeAcc) probeSimplex(p protocols.Protocol, b protocols.Bound, scens []protocols.Scenario, mus [][2]float64, stride int) error {
	var ws simplex.Workspace
	for k := 0; k < len(scens); k += stride {
		spec, err := protocols.CompileGaussian(p, b, scens[k])
		if err != nil {
			return err
		}
		lp := lpOf(spec, mus[k][0], mus[k][1])
		t0 := time.Now()
		sol, err := lp.SolveIn(&ws)
		a.lpNS += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return err
		}
		a.lpPivots += sol.Iterations
		a.lpN++
	}
	return nil
}

// lpProtocol reports whether the evaluator solves p by simplex (the other
// protocols have closed forms).
func lpProtocol(p protocols.Protocol) bool { return p == protocols.Naive4 || p == protocols.HBC }

// protocolMetrics writes the protocols and simplex metrics of an accumulator.
func (a *probeAcc) protocolMetrics(m map[string]float64) {
	for k, p := range bicoop.AllProtocols() {
		if a.protoN[k] > 0 {
			m["protocols.solve_ns."+p.String()] = a.protoNS[k] / float64(a.protoN[k])
		}
	}
	if a.warmN > 0 {
		m["protocols.warm_solve_ns"] = a.warmNS / float64(a.warmN)
		m["protocols.cold_solve_ns"] = a.coldNS / float64(a.warmN)
	}
	if a.lpN > 0 {
		m["simplex.pivots_per_solve"] = float64(a.lpPivots) / float64(a.lpN)
		m["simplex.solve_ns"] = a.lpNS / float64(a.lpN)
	}
}

// withinBudget reports whether another probed request fits: at least one
// is always probed.
func withinBudget(start time.Time, done int, budget time.Duration) bool {
	return done == 0 || time.Since(start) < budget
}

func (w *sweepGrid) layers(ctx context.Context, tr *tracer, reqs []int, budget time.Duration) (layerReport, error) {
	var a probeAcc
	ev := protocols.NewEvaluator()
	start := time.Now()
	var points, lpPoints int
	for _, i := range reqs {
		if !withinBudget(start, a.reqs, budget) {
			break
		}
		spec := sweepGridSpec(w.seed, i)
		rid := int64(i)
		discard := func(bicoop.SweepPoint) error { return nil }

		// bicoop vs internal/sweep on the identical spec.
		up, down, err := timePair(tr, rid, a.reqs%2 == 1, "probe.bicoop.Engine.Sweep", "probe.sweep.Sweep",
			func() error { return w.eng.Sweep(ctx, spec, discard) },
			func() error {
				return sweep.Sweep(ctx, internalSweepSpec(spec), sweep.Options{Workers: nproc}, func(sweep.Point) error { return nil })
			})
		if err != nil {
			return layerReport{}, err
		}
		a.engineMS += ms(up.dur())
		a.internalMS += ms(down.dur())

		// sweep.Batch per protocol with per-point spans between the scen
		// and store callbacks.
		scens, err := gridScenarios(spec)
		if err != nil {
			return layerReport{}, err
		}
		ib := internalBound(spec.Bound)
		starts := make([]time.Time, len(scens))
		for _, p := range spec.Protocols {
			ip := internalProto(p)
			bs := tr.begin("probe.sweep.Batch."+p.String(), 0, rid)
			var pts []span
			var ptsMu sync.Mutex
			_, err := sweep.Batch(ctx, ip, ib, len(scens), sweep.Options{Workers: nproc},
				func(k int) sweep.Scenario { starts[k] = time.Now(); return sweep.Scenario(scens[k]) },
				func(k int, _ sweep.Result) {
					now := time.Now()
					ptsMu.Lock()
					pts = append(pts, span{Start: starts[k].Sub(tr.t0), End: now.Sub(tr.t0)})
					ptsMu.Unlock()
				})
			if err != nil {
				return layerReport{}, err
			}
			bs = tr.end(bs)
			for _, ps := range pts {
				a.busyMS += ms(ps.dur())
				if a.reqs == 0 { // point spans of one request show the shape; all would swamp the trace
					tr.add("probe.protocols.point", bs.ID, rid, tr.t0.Add(ps.Start), tr.t0.Add(ps.End))
				}
			}
			a.wallMS += ms(bs.dur())
			a.selfMS += ms(selfTime(bs, pts))
		}

		// protocols: per-protocol solve time in sweep order, warm as the
		// core runs it; warm vs cold on the LP protocols.
		lis := make([]protocols.LinkInfos, len(scens))
		iscen := make([]protocols.Scenario, len(scens))
		for k, sc := range scens {
			iscen[k] = internalScenario(sc)
			if lis[k], err = protocols.LinkInfosFromScenario(iscen[k]); err != nil {
				return layerReport{}, err
			}
		}
		mus := make([][2]float64, len(scens))
		for k := range mus {
			mus[k] = [2]float64{1, 1}
		}
		for k, p := range spec.Protocols {
			ip := internalProto(p)
			d, _, err := probeProtocols(ev, ip, ib, lis, mus, true)
			if err != nil {
				return layerReport{}, err
			}
			a.protoNS[k] += float64(d.Nanoseconds())
			a.protoN[k] += len(lis)
			if lpProtocol(ip) {
				a.warmNS += float64(d.Nanoseconds())
				cold, _, err := probeProtocols(ev, ip, ib, lis, mus, false)
				if err != nil {
					return layerReport{}, err
				}
				a.coldNS += float64(cold.Nanoseconds())
				a.warmN += len(lis)
				lpPoints += len(lis)
				if err := a.probeSimplex(ip, ib, iscen, mus, 4); err != nil {
					return layerReport{}, err
				}
			}
		}
		points += spec.Size()
		a.reqs++
	}
	m := map[string]float64{
		"bicoop.self_ms_per_op": a.perReq(a.engineMS - a.internalMS),
		"sweep.points_per_op":   a.perReq(float64(points)),
		"sweep.chunks_per_op":   float64(ceilDiv(sweepGridSpec(w.seed, 0).Size(), sweep.ChunkSize)),
		"sweep.busy_ms_per_op":  a.perReq(a.busyMS),
		"sweep.self_ms_per_op":  a.perReq(a.selfMS),
		"sweep.worker_util":     a.busyMS / (a.wallMS * float64(nproc)),
		"simplex.solves_per_op": a.perReq(float64(lpPoints)),
		"cache.lookups_per_op":  lookupsPerOp(w.eng, len(reqs)),
	}
	a.protocolMetrics(m)
	return analyticReport(&a, m, len(reqs)), nil
}

// analyticReport attributes the mean engine-call time to the layers' self
// time, each measured on its own: the facade (engine minus internal call),
// the sweep core's self time, evaluator solves outside the simplex and
// simplex solves (both from the single-threaded probes, divided across the
// workers). What they do not explain is reported as unattributed.
func analyticReport(a *probeAcc, m map[string]float64, traced int) layerReport {
	reqMS := a.perReq(a.engineMS)
	eval := 0.0
	for _, ns := range a.protoNS {
		eval += ns
	}
	busy := a.perReq(eval) / 1e6 / float64(nproc)
	lp := m["simplex.solves_per_op"] * m["simplex.solve_ns"] / 1e6 / float64(nproc)
	rep := layerReport{metrics: m, reqMS: reqMS, shares: []share{
		{"bicoop", m["bicoop.self_ms_per_op"]},
		{"sweep", m["sweep.self_ms_per_op"]},
		{"protocols", busy - lp},
		{"simplex", lp},
	}}
	if h, ok := m["region.hull_us_per_curve"]; ok {
		rep.shares = append(rep.shares, share{"region", h * float64(len(regionCurves)) / 1000})
	}
	rep.notes = append(rep.notes, fmt.Sprintf("layers probed on %d of %d traced requests; parallel busy time is divided by %d workers", a.reqs, traced, nproc))
	return rep
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// lookupsPerOp is the engine's cache lookups per request; an engine
// without a cache reports zero.
func lookupsPerOp(eng *bicoop.Engine, reqs int) float64 {
	st := eng.CacheStats()
	return float64(st.Hits+st.Misses) / float64(max(reqs, 1))
}

// ---- region-curves ----

type regionCurvesW struct {
	seed int64
	eng  *bicoop.Engine
	regs []bicoop.Region
}

func setupRegionCurves(ctx context.Context, seed int64, _ string) (instance, error) {
	eng := bicoop.NewEngine(bicoop.WithWorkers(nproc))
	if err := primeEngine(ctx, eng); err != nil {
		return nil, err
	}
	return &regionCurvesW{seed: seed, eng: eng, regs: make([]bicoop.Region, len(regionCurves))}, nil
}

func (w *regionCurvesW) close() error { return nil }

func (w *regionCurvesW) request(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	spec := regionSpec(w.seed, i)
	root := tr.begin("request", 0, int64(i))
	call := tr.begin("bicoop.Engine.RegionBatch", root.ID, int64(i))
	t0 := time.Now()
	err := w.eng.RegionBatch(ctx, spec, func(pt bicoop.RegionBatchPoint) error {
		w.regs[pt.CurveIdx] = pt.Region
		return nil
	})
	lat := time.Since(t0)
	tr.end(call)
	if err == nil {
		orc := tr.begin("oracle", root.ID, int64(i))
		err = w.check(ctx, spec, i)
		tr.end(orc)
	}
	tr.end(root)
	return lat, err
}

// check applies the region oracles: each curve's maximal sum rate equals
// the engine's sweep sum rate for the scenario, inner ≤ outer, MABC
// tightness, HBC dominance, and two seeded curves against the cold
// reference.
func (w *regionCurvesW) check(ctx context.Context, spec bicoop.RegionBatchSpec, i int) error {
	s := spec.Scenarios[0]
	np := len(bicoop.AllProtocols())
	regSums := map[bicoop.Bound][]float64{bicoop.Inner: make([]float64, np), bicoop.Outer: make([]float64, np)}
	for k, c := range spec.Curves {
		regSums[c.Bound][protoIndex(c.Protocol)] = w.regs[k].MaxSumRate()
	}
	for _, b := range []bicoop.Bound{bicoop.Inner, bicoop.Outer} {
		pts, err := w.eng.SweepAll(ctx, bicoop.SweepSpec{Bound: b, Base: s, Workers: 1})
		if err != nil {
			return err
		}
		for _, pt := range pts {
			if got := regSums[b][protoIndex(pt.Protocol)]; !near(got, pt.Result.Sum) {
				return fmt.Errorf("request %d: %w: %v %v region max sum %.15g, sweep sum %.15g",
					i, errOracle, pt.Protocol, b, got, pt.Result.Sum)
			}
		}
	}
	if err := checkBounds(regSums[bicoop.Inner], regSums[bicoop.Outer]); err != nil {
		return fmt.Errorf("request %d: %w", i, err)
	}
	if err := checkDominance(regSums[bicoop.Inner]); err != nil {
		return fmt.Errorf("request %d: %w", i, err)
	}
	r := rngFor(w.seed, streamOracle, uint64(i))
	for range 2 {
		c := spec.Curves[r.Intn(len(spec.Curves))]
		if err := checkCold(c.Protocol, c.Bound, s, regSums[c.Bound][protoIndex(c.Protocol)]); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}

func (w *regionCurvesW) layers(ctx context.Context, tr *tracer, reqs []int, budget time.Duration) (layerReport, error) {
	var a probeAcc
	ev := protocols.NewEvaluator()
	start := time.Now()
	var points, lpPoints int
	for _, i := range reqs {
		if !withinBudget(start, a.reqs, budget) {
			break
		}
		spec := regionSpec(w.seed, i)
		rid := int64(i)
		ispec := sweep.RegionSpec{Angles: spec.Angles, Scenarios: []sweep.Scenario{sweep.Scenario(spec.Scenarios[0])}}
		for _, c := range spec.Curves {
			ispec.Curves = append(ispec.Curves, sweep.RegionCurve{Proto: internalProto(c.Protocol), Bound: internalBound(c.Bound)})
		}
		up, down, err := timePair(tr, rid, a.reqs%2 == 1, "probe.bicoop.Engine.RegionBatch", "probe.sweep.RegionBatch",
			func() error {
				return w.eng.RegionBatch(ctx, spec, func(bicoop.RegionBatchPoint) error { return nil })
			},
			func() error {
				return sweep.RegionBatch(ctx, ispec, sweep.Options{Workers: nproc}, func(sweep.RegionResult) error { return nil })
			})
		if err != nil {
			return layerReport{}, err
		}
		a.engineMS += ms(up.dur())
		a.internalMS += ms(down.dur())
		sweepWall := ms(down.dur())

		// Per-curve direction sweeps on one evaluator, in the core's
		// flattened order: angles directions, then the two axis solves.
		iscen := internalScenario(spec.Scenarios[0])
		li, err := protocols.LinkInfosFromScenario(iscen)
		if err != nil {
			return layerReport{}, err
		}
		perCurve := spec.Angles + 2
		lis := make([]protocols.LinkInfos, perCurve)
		scens := make([]protocols.Scenario, perCurve)
		mus := make([][2]float64, perCurve)
		for j := range perCurve {
			lis[j], scens[j] = li, iscen
			switch {
			case j < spec.Angles:
				mus[j][0], mus[j][1] = protocols.RegionDirection(j, spec.Angles)
			case j == spec.Angles:
				mus[j] = [2]float64{1, 0}
			default:
				mus[j] = [2]float64{0, 1}
			}
		}
		busy := 0.0
		hull := 0.0
		for _, c := range spec.Curves {
			ip, ib := internalProto(c.Protocol), internalBound(c.Bound)
			cs := tr.begin("probe.protocols.curve."+c.Protocol.String()+"."+c.Bound.String(), 0, rid)
			d, pts, err := probeProtocols(ev, ip, ib, lis, mus, true)
			if err != nil {
				return layerReport{}, err
			}
			cs = tr.end(cs)
			k := protoIndex(c.Protocol)
			a.protoNS[k] += float64(d.Nanoseconds())
			a.protoN[k] += perCurve
			busy += ms(d)
			if lpProtocol(ip) {
				a.warmNS += float64(d.Nanoseconds())
				cold, _, err := probeProtocols(ev, ip, ib, lis, mus, false)
				if err != nil {
					return layerReport{}, err
				}
				a.coldNS += float64(cold.Nanoseconds())
				a.warmN += perCurve
				lpPoints += perCurve
				if err := a.probeSimplex(ip, ib, scens, mus, 2); err != nil {
					return layerReport{}, err
				}
			}
			// region: hull assembly of the curve's swept vertices.
			swept := pts[:spec.Angles]
			for j := range swept {
				swept[j] = region.Point{Ra: max(swept[j].Ra, 0), Rb: max(swept[j].Rb, 0)}
			}
			hs := tr.begin("probe.region.AssembleRegion", cs.ID, rid)
			pg := protocols.AssembleRegion(swept, pts[spec.Angles].Ra, pts[spec.Angles+1].Rb)
			hs = tr.end(hs)
			hull += ms(hs.dur())
			a.hullUS += float64(hs.dur().Nanoseconds()) / 1e3
			a.vertices += len(pg.Vertices())
			a.curves++
		}
		a.busyMS += busy
		a.wallMS += sweepWall
		a.selfMS += max(sweepWall-busy/float64(nproc)-hull, 0)
		points += len(spec.Curves) * perCurve
		a.reqs++
	}
	perReqPts := len(regionCurves) * (regionAngles + 2)
	m := map[string]float64{
		"bicoop.self_ms_per_op":     a.perReq(a.engineMS - a.internalMS),
		"sweep.points_per_op":       a.perReq(float64(points)),
		"sweep.chunks_per_op":       float64(ceilDiv(perReqPts, sweep.ChunkSize)),
		"sweep.busy_ms_per_op":      a.perReq(a.busyMS),
		"sweep.self_ms_per_op":      a.perReq(a.selfMS),
		"sweep.worker_util":         a.busyMS / (a.wallMS * float64(nproc)),
		"simplex.solves_per_op":     a.perReq(float64(lpPoints)),
		"region.hull_us_per_curve":  a.hullUS / float64(max(a.curves, 1)),
		"region.vertices_per_curve": float64(a.vertices) / float64(max(a.curves, 1)),
		"cache.lookups_per_op":      lookupsPerOp(w.eng, len(reqs)),
	}
	a.protocolMetrics(m)
	return analyticReport(&a, m, len(reqs)), nil
}
