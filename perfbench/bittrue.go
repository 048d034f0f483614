package main

// bittrue.go — the bittrue-waterfall workload and its layer probes: the
// facade campaign against the internal simulators on the same specs, and a
// replica block per spec, built from the exported prob, gf2 and netcode
// pieces with the simulators' shapes, that times masks, combines and solves.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"bicoop"
	"bicoop/internal/gf2"
	"bicoop/internal/netcode"
	"bicoop/internal/prob"
	"bicoop/internal/protocols"
	"bicoop/internal/sim"
	"bicoop/internal/sweep"
)

type bitTrue struct {
	seed int64
	eng  *bicoop.Engine
	base waterfallBase
}

func setupBitTrue(_ context.Context, seed int64, _ string) (instance, error) {
	base, err := newWaterfallBase()
	if err != nil {
		return nil, err
	}
	return &bitTrue{seed: seed, eng: bicoop.NewEngine(bicoop.WithWorkers(nproc)), base: base}, nil
}

func (w *bitTrue) close() error { return nil }

func (w *bitTrue) request(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	spec := w.base.campaign(w.seed, i)
	root := tr.begin("request", 0, int64(i))
	call := tr.begin("bicoop.Engine.SimulateBatch", root.ID, int64(i))
	t0 := time.Now()
	res, err := w.eng.SimulateBatch(ctx, spec, nil)
	lat := time.Since(t0)
	tr.end(call)
	if err == nil {
		orc := tr.begin("oracle", root.ID, int64(i))
		for k, pt := range w.base.points {
			if err = checkWaterfall(pt, res[k]); err != nil {
				err = fmt.Errorf("request %d spec %d: %w", i, k, err)
				break
			}
		}
		tr.end(orc)
	}
	tr.end(root)
	return lat, err
}

// runInternal runs one campaign spec on internal/sim directly, as the
// facade would.
func runInternal(ctx context.Context, s bicoop.SimSpec) error {
	if t := s.BitTrueTDBC; t != nil {
		_, err := sim.RunBitTrueTDBC(ctx, sim.BitTrueConfig{
			Net:         sim.ErasureNetwork{EpsAR: t.Links.EpsAR, EpsBR: t.Links.EpsBR, EpsAB: t.Links.EpsAB},
			Rates:       protocols.RatePair{Ra: t.Rates.Ra, Rb: t.Rates.Rb},
			Durations:   t.Durations,
			BlockLength: t.BlockLength,
			Trials:      s.Trials, Seed: s.Seed, Workers: s.Workers,
		})
		return err
	}
	m := s.BitTrueMABC
	_, err := sim.RunBitTrueMABC(ctx, sim.MABCBitTrueConfig{
		EpsMAC: m.Links.EpsMAC, EpsRA: m.Links.EpsRA, EpsRB: m.Links.EpsRB,
		Rate: m.Rate, Durations: m.Durations, BlockLength: m.BlockLength,
		Trials: s.Trials, Seed: s.Seed, Workers: s.Workers,
	})
	return err
}

// shadowStats accumulates the replica blocks' layer timings. Index 0 of the
// solve arrays is k < 512, index 1 is k ≥ 512.
type shadowStats struct {
	blocks    int
	blockNS   float64
	masks     int
	maskNS    float64
	combines  int
	combineNS float64
	solves    [2]int
	solveNS   [2]float64
	m4ri      int
}

// m4riCols is the GF(2) solver's multi-column cutover: at least this many
// unknowns and at least as many equations as unknowns.
const m4riCols = 512

func kClass(k int) int {
	if k >= m4riCols {
		return 1
	}
	return 0
}

// shadow is a replica of one simulator worker's block: the same code
// shapes, erasure masks and solver calls, driven through exported APIs.
type shadow struct {
	rng    *rand.Rand
	solver gf2.Solver
	st     *shadowStats
	masks  []uint64
}

// drawMasks draws count 64-lane masks in one timed batch.
func (s *shadow) drawMasks(g prob.WordBernoulli, count int) []uint64 {
	if cap(s.masks) < count {
		s.masks = make([]uint64, count)
	}
	m := s.masks[:count]
	t0 := time.Now()
	for j := range m {
		m[j] = g.Mask(s.rng)
	}
	s.st.maskNS += float64(time.Since(t0).Nanoseconds())
	s.st.masks += count
	return m
}

func (s *shadow) solve(dst *gf2.Vector, k int, rows []gf2.Vector, bitsv []int) bool {
	t0 := time.Now()
	err := s.solver.SolveConsistentInto(dst, k, rows, bitsv)
	c := kClass(k)
	s.st.solveNS[c] += float64(time.Since(t0).Nanoseconds())
	s.st.solves[c]++
	if k >= m4riCols && len(rows) >= k {
		s.st.m4ri++
	}
	return err == nil
}

// survivors appends the rows and bits of the positions a phase's masks
// leave unerased.
func survivors(masks []uint64, n int, g gf2.Matrix, x gf2.Vector, rows []gf2.Vector, bitsv []int) ([]gf2.Vector, []int) {
	for b, mk := range masks {
		base := b * 64
		live := ^uint64(0)
		if n-base < 64 {
			live = 1<<uint(n-base) - 1
		}
		for m := ^mk & live; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			rows = append(rows, g.RowView(i))
			bitsv = append(bitsv, x.Bit(i))
		}
	}
	return rows, bitsv
}

// tdbcBlock replicates sim's TDBC block: two broadcast phases overheard by
// the relay and the peer, relay decode of both messages, padded XOR
// combine, relay broadcast, and each terminal's pooled decode.
func (s *shadow) tdbcBlock(net bicoop.ErasureLinks, durs []float64, rates bicoop.RatePoint, n int) {
	n1 := int(math.Round(durs[0] * float64(n)))
	n2 := int(math.Round(durs[1] * float64(n)))
	n3 := max(n-n1-n2, 0)
	ka, kb := int(math.Floor(rates.Ra*float64(n))), int(math.Floor(rates.Rb*float64(n)))
	kr := max(ka, kb)
	ar, br, ab := prob.NewWordBernoulli(net.EpsAR), prob.NewWordBernoulli(net.EpsBR), prob.NewWordBernoulli(net.EpsAB)
	t0 := time.Now()
	wa, wb := gf2.RandomVector(ka, s.rng), gf2.RandomVector(kb, s.rng)
	codeA, codeB := gf2.NewCode(n1, ka, s.rng), gf2.NewCode(n2, kb, s.rng)
	xa, xb := gf2.NewVector(n1), gf2.NewVector(n2)
	_ = codeA.EncodeInto(&xa, wa)
	_ = codeB.EncodeInto(&xb, wb)
	nb1, nb2, nb3 := ceilDiv(n1, 64), ceilDiv(n2, 64), ceilDiv(n3, 64)
	relayA, relayABits := survivors(s.drawMasks(ar, nb1), n1, codeA.G, xa, nil, nil)
	forB, forBBits := survivors(s.drawMasks(ab, nb1), n1, codeA.G, xa, nil, nil)
	relayB, relayBBits := survivors(s.drawMasks(br, nb2), n2, codeB.G, xb, nil, nil)
	forA, forABits := survivors(s.drawMasks(ab, nb2), n2, codeB.G, xb, nil, nil)
	decA, decB := gf2.NewVector(ka), gf2.NewVector(kb)
	okA := s.solve(&decA, ka, relayA, relayABits)
	okB := s.solve(&decB, kb, relayB, relayBBits)
	if okA && okB {
		wr := gf2.NewVector(kr)
		c0 := time.Now()
		_ = netcode.PadCombineInto(&wr, decA, decB)
		s.st.combineNS += float64(time.Since(c0).Nanoseconds())
		s.st.combines++
		codeR := gf2.NewCode(n3, kr, s.rng)
		xr := gf2.NewVector(n3)
		_ = codeR.EncodeInto(&xr, wr)
		padA, padB := gf2.NewVector(kr), gf2.NewVector(kr)
		padA.CopyPrefix(wa)
		padB.CopyPrefix(wb)
		mA := append([]uint64(nil), s.drawMasks(ar, nb3)...)
		mB := s.drawMasks(br, nb3)
		relayRows := func(masks []uint64, kPeer int, pad gf2.Vector, rows []gf2.Vector, bv []int) ([]gf2.Vector, []int) {
			for b, mk := range masks {
				base := b * 64
				live := ^uint64(0)
				if n3-base < 64 {
					live = 1<<uint(n3-base) - 1
				}
				for m := ^mk & live; m != 0; m &= m - 1 {
					i := base + bits.TrailingZeros64(m)
					row := codeR.G.RowView(i)
					t := gf2.NewVector(kPeer)
					t.CopyPrefix(row)
					rows = append(rows, t)
					bv = append(bv, xr.Bit(i)^gf2.Dot(row, pad))
				}
			}
			return rows, bv
		}
		forA, forABits = relayRows(mA, kb, padA, forA, forABits)
		forB, forBBits = relayRows(mB, ka, padB, forB, forBBits)
		gotA, gotB := gf2.NewVector(ka), gf2.NewVector(kb)
		if s.solve(&gotB, kb, forA, forABits) {
			s.solve(&gotA, ka, forB, forBBits)
		}
	}
	s.st.blockNS += float64(time.Since(t0).Nanoseconds())
	s.st.blocks++
}

// mabcBlock replicates sim's compute-and-forward MABC block: the relay
// decodes the XOR from the MAC phase, then each terminal decodes the relay
// broadcast.
func (s *shadow) mabcBlock(l bicoop.MABCComputeForwardLinks, durs []float64, rate float64, n int) {
	n1 := int(math.Round(durs[0] * float64(n)))
	n2 := n - n1
	k := int(math.Floor(rate * float64(n)))
	mac, ra, rb := prob.NewWordBernoulli(l.EpsMAC), prob.NewWordBernoulli(l.EpsRA), prob.NewWordBernoulli(l.EpsRB)
	t0 := time.Now()
	x := gf2.RandomVector(k, s.rng)
	codeMAC := gf2.NewCode(n1, k, s.rng)
	xs := gf2.NewVector(n1)
	_ = codeMAC.EncodeInto(&xs, x)
	rows, bv := survivors(s.drawMasks(mac, ceilDiv(n1, 64)), n1, codeMAC.G, xs, nil, nil)
	sHat := gf2.NewVector(k)
	if s.solve(&sHat, k, rows, bv) {
		codeBC := gf2.NewCode(n2, k, s.rng)
		xr := gf2.NewVector(n2)
		_ = codeBC.EncodeInto(&xr, sHat)
		for _, g := range []prob.WordBernoulli{ra, rb} {
			rows, bv := survivors(s.drawMasks(g, ceilDiv(n2, 64)), n2, codeBC.G, xr, nil, nil)
			dst := gf2.NewVector(k)
			s.solve(&dst, k, rows, bv)
		}
	}
	s.st.blockNS += float64(time.Since(t0).Nanoseconds())
	s.st.blocks++
}

func (w *bitTrue) layers(ctx context.Context, tr *tracer, reqs []int, budget time.Duration) (layerReport, error) {
	var engineMS, internalMS float64
	var simNS [2]float64
	var simBlocks [2]int
	var st shadowStats
	start := time.Now()
	probed := 0
	for _, i := range reqs {
		if !withinBudget(start, probed, budget) {
			break
		}
		spec := w.base.campaign(w.seed, i)
		rid := int64(i)
		// The facade campaign against the same specs on internal/sim,
		// pooled exactly as the facade pools them (nproc outer workers, one
		// spec per chunk).
		up, down, err := timePair(tr, rid, probed%2 == 1, "probe.bicoop.Engine.SimulateBatch", "probe.sim.campaign",
			func() error {
				_, err := w.eng.SimulateBatch(ctx, spec, nil)
				return err
			},
			func() error {
				_, err := sweep.RunCore(ctx, len(spec.Specs), sweep.CoreOptions{Workers: nproc, ChunkSize: 1}, sweep.Hooks[struct{}]{},
					func(_ struct{}, lo, hi int) error {
						for k := lo; k < hi; k++ {
							if err := runInternal(ctx, spec.Specs[k]); err != nil {
								return err
							}
						}
						return nil
					}, nil)
				return err
			})
		if err != nil {
			return layerReport{}, err
		}
		engineMS += ms(up.dur())
		internalMS += ms(down.dur())

		// Per-spec sequential runs: block time by solver side.
		for k, ss := range spec.Specs {
			c := kClass(w.specK(ss))
			rs := tr.begin(fmt.Sprintf("probe.sim.run.n%d", w.base.points[k].n), 0, rid)
			if err := runInternal(ctx, ss); err != nil {
				return layerReport{}, err
			}
			rs = tr.end(rs)
			simNS[c] += float64(rs.dur().Nanoseconds())
			simBlocks[c] += ss.Trials
		}

		// Replica blocks with the same shapes and trial counts.
		sh := shadow{rng: rand.New(rand.NewSource(int64(i))), st: &st}
		rs := tr.begin("probe.replica", 0, rid)
		for _, ss := range spec.Specs {
			for range ss.Trials {
				if t := ss.BitTrueTDBC; t != nil {
					sh.tdbcBlock(t.Links, t.Durations, t.Rates, t.BlockLength)
				} else {
					m := ss.BitTrueMABC
					sh.mabcBlock(m.Links, m.Durations, m.Rate, m.BlockLength)
				}
			}
		}
		tr.end(rs)
		probed++
	}
	per := func(x float64) float64 { return x / float64(max(probed, 1)) }
	solves := st.solves[0] + st.solves[1]
	solveNS := st.solveNS[0] + st.solveNS[1]
	m := map[string]float64{
		"bicoop.self_ms_per_op": per(engineMS - internalMS),
		"sim.blocks_per_op":     float64(w.base.blocksPerCycle),
		"sim.block_us.k_lt512":  simNS[0] / 1e3 / float64(max(simBlocks[0], 1)),
		"sim.block_us.k_ge512":  simNS[1] / 1e3 / float64(max(simBlocks[1], 1)),
		"prob.masks_per_block":  float64(st.masks) / float64(max(st.blocks, 1)),
		"prob.mask_ns":          st.maskNS / float64(max(st.masks, 1)),
		"netcode.combine_ns":    st.combineNS / float64(max(st.combines, 1)),
		"gf2.solves_per_block":  float64(solves) / float64(max(st.blocks, 1)),
		"gf2.solve_us.k_lt512":  st.solveNS[0] / 1e3 / float64(max(st.solves[0], 1)),
		"gf2.solve_us.k_ge512":  st.solveNS[1] / 1e3 / float64(max(st.solves[1], 1)),
		"gf2.m4ri_share":        float64(st.m4ri) / float64(max(solves, 1)),
		"gf2.share_of_block":    solveNS / st.blockNS,
		"cache.lookups_per_op":  lookupsPerOp(w.eng, len(reqs)),
	}
	// Shares: the replica's split of block time into masks, combines and
	// solves, applied to the internal/sim run time per request, spread over
	// the outer workers like the campaign spreads its specs.
	simMS := per((simNS[0]+simNS[1])/1e6) / float64(nproc)
	frac := func(ns float64) float64 { return ns / st.blockNS }
	rep := layerReport{metrics: m, reqMS: per(engineMS), shares: []share{
		{"bicoop", m["bicoop.self_ms_per_op"]},
		{"sim", simMS * (1 - frac(solveNS+st.maskNS+st.combineNS))},
		{"prob", simMS * frac(st.maskNS)},
		{"netcode", simMS * frac(st.combineNS)},
		{"gf2", simMS * frac(solveNS)},
	}}
	rep.notes = append(rep.notes,
		fmt.Sprintf("layers probed on %d of %d traced requests; replica blocks mirror the simulators' shapes, so their layer split is applied to the internal/sim run time", probed, len(reqs)),
		fmt.Sprintf("gf2 solves: %d with k<512, %d with k>=512, %d on the M4RI path", st.solves[0], st.solves[1], st.m4ri))
	return rep, nil
}

// specK is the largest message length a spec decodes, which decides the
// solver side of the cutover.
func (w *bitTrue) specK(s bicoop.SimSpec) int {
	if t := s.BitTrueTDBC; t != nil {
		n := float64(t.BlockLength)
		return max(int(math.Floor(t.Rates.Ra*n)), int(math.Floor(t.Rates.Rb*n)))
	}
	return int(math.Floor(s.BitTrueMABC.Rate * float64(s.BitTrueMABC.BlockLength)))
}
