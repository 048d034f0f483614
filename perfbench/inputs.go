package main

// inputs.go — every request's inputs as a pure function of (seed, request
// index). Nothing here depends on time or on earlier requests' results, so
// the same seed always yields the same inputs, and the program under test
// sees only what these functions return.

import (
	"math/rand"

	"bicoop"
	"bicoop/internal/service"
)

// rngFor returns a generator keyed by the seed, a per-workload stream tag
// and the request index, mixed through splitmix64 so nearby keys give
// unrelated streams.
func rngFor(seed int64, stream, i uint64) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ i*0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(splitmix64(x))))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const (
	streamSweep uint64 = iota + 1
	streamRegion
	streamBitTrue
	streamJobs
	streamOracle
)

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// placement draws a relay geometry: position inside the a–b segment and a
// path-loss exponent in the range the paper's Fig 3 spans.
func placement(r *rand.Rand) bicoop.RelayPlacement {
	return bicoop.RelayPlacement{Pos: uniform(r, 0.15, 0.85), Exponent: uniform(r, 2, 4)}
}

// sweepGridPowers is the Fig 3 power axis: 0–20 dB in 0.1 dB steps.
var sweepGridPowers = func() []float64 {
	p := make([]float64, 201)
	for i := range p {
		p[i] = float64(i) / 10
	}
	return p
}()

// sweepGridSpec is request i of sweep-grid: 201 powers × 3 placements × all
// protocols. Requests come in pairs over the same placements, the first on
// the inner bound and the second on the outer, so the oracle can compare
// the two bounds point by point.
func sweepGridSpec(seed int64, i int) bicoop.SweepSpec {
	r := rngFor(seed, streamSweep, uint64(i/2))
	spec := bicoop.SweepSpec{
		Protocols: bicoop.AllProtocols(),
		Bound:     bicoop.Inner,
		PowersDB:  sweepGridPowers,
		Workers:   nproc,
	}
	if i%2 == 1 {
		spec.Bound = bicoop.Outer
	}
	for range 3 {
		spec.Placements = append(spec.Placements, placement(r))
	}
	return spec
}

// regionAngles is the Fig 4 support-direction resolution.
const regionAngles = 181

// regionCurves are the ten curves of a region-curves request: every
// protocol on both bounds.
var regionCurves = func() []bicoop.RegionCurve {
	var cs []bicoop.RegionCurve
	for _, p := range bicoop.AllProtocols() {
		cs = append(cs, bicoop.RegionCurve{Protocol: p, Bound: bicoop.Inner},
			bicoop.RegionCurve{Protocol: p, Bound: bicoop.Outer})
	}
	return cs
}()

// scenarioFrom draws a Gaussian scenario from a relay placement and a power
// in 0–20 dB.
func scenarioFrom(r *rand.Rand) bicoop.Scenario {
	pl := placement(r)
	s, err := pl.Scenario(uniform(r, 0, 20))
	if err != nil {
		panic(err) // placements inside (0,1) always resolve
	}
	return s
}

// regionSpec is request i of region-curves: one scenario, ten curves.
func regionSpec(seed int64, i int) bicoop.RegionBatchSpec {
	r := rngFor(seed, streamRegion, uint64(i))
	return bicoop.RegionBatchSpec{
		Scenarios: []bicoop.Scenario{scenarioFrom(r)},
		Curves:    regionCurves,
		Angles:    regionAngles,
		Workers:   nproc,
	}
}

// Bit-true waterfall geometry: the paper's erasure TDBC network and the
// compute-and-forward MABC links used by the repository's bitsim
// experiments.
var (
	waterfallTDBC   = bicoop.ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}
	waterfallMABC   = bicoop.MABCComputeForwardLinks{EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1}
	waterfallScales = []float64{0.9, 1.1}
)

// waterfallBlocks are the two block lengths, one on each side of the GF(2)
// solver's 512-column cutover, with trial counts that give each about half
// of a request's time. 40 trials at n=1200 keep the scale-0.9 oracle
// (success ≥ 0.9) safe: a block there fails about once in 400, and failing
// the oracle takes five failures in one spec.
var waterfallBlocks = []struct{ n, trials int }{{1200, 40}, {4000, 2}}

// waterfallPoint describes one spec of a bit-true request for the oracle
// and the traced run.
type waterfallPoint struct {
	mabc   bool
	scale  float64
	n      int
	trials int
}

// waterfallBase holds the bound-derived operating points, computed once.
type waterfallBase struct {
	tdbc           bicoop.SumRateResult
	mabcRate       float64
	mabcDurations  []float64
	points         []waterfallPoint
	blocksPerCycle int
}

func newWaterfallBase() (waterfallBase, error) {
	opt, err := bicoop.OptimalTDBCErasureRates(waterfallTDBC)
	if err != nil {
		return waterfallBase{}, err
	}
	b := waterfallBase{tdbc: opt}
	b.mabcRate, b.mabcDurations = waterfallMABC.ComputeForwardBound()
	for _, blk := range waterfallBlocks {
		for _, mabc := range []bool{false, true} {
			for _, sc := range waterfallScales {
				b.points = append(b.points, waterfallPoint{mabc: mabc, scale: sc, n: blk.n, trials: blk.trials})
				b.blocksPerCycle += blk.trials
			}
		}
	}
	return b, nil
}

// campaign is request i of bittrue-waterfall: one spec per waterfall point,
// each with Workers 1 (seed-deterministic) and its own seeded stream.
func (b waterfallBase) campaign(seed int64, i int) bicoop.CampaignSpec {
	r := rngFor(seed, streamBitTrue, uint64(i))
	spec := bicoop.CampaignSpec{Workers: nproc}
	for _, pt := range b.points {
		ss := bicoop.SimSpec{Trials: pt.trials, Seed: r.Int63(), Workers: 1}
		if pt.mabc {
			ss.BitTrueMABC = &bicoop.BitTrueMABCSpec{
				Links:       waterfallMABC,
				Rate:        b.mabcRate * pt.scale,
				Durations:   b.mabcDurations,
				BlockLength: pt.n,
			}
		} else {
			ss.BitTrueTDBC = &bicoop.BitTrueTDBCSpec{
				Links:       waterfallTDBC,
				Rates:       bicoop.RatePoint{Ra: b.tdbc.Point.Ra * pt.scale, Rb: b.tdbc.Point.Rb * pt.scale},
				Durations:   b.tdbc.Durations,
				BlockLength: pt.n,
			}
		}
		spec.Specs = append(spec.Specs, ss)
	}
	return spec
}

// Service job mix. Half the jobs (seeded) repeat an earlier job, so the
// result cache serves them; the other half are fresh and fill the cache and
// its log.
const (
	jobRepeatShare = 0.5
	jobRegionShare = 0.125
)

// jobOrigin resolves job i to the index of the fresh job it repeats (itself
// when fresh). A repeat picks a uniformly random earlier job, following
// that job back to its own origin.
func jobOrigin(seed int64, i int) int {
	for i > 0 {
		r := rngFor(seed, streamJobs, uint64(i))
		if r.Float64() >= jobRepeatShare {
			return i
		}
		i = r.Intn(i)
	}
	return 0
}

// freshJob builds the job spec of a fresh (origin) job: mostly ~300-point
// Fig 3 sweeps (20 powers × 3 placements × 5 protocols), sometimes a small
// two-curve region batch.
func freshJob(seed int64, origin int) service.JobSpec {
	r := rngFor(seed, streamJobs, uint64(origin))
	r.Float64() // skip the draw jobOrigin used to decide the job is fresh
	if r.Float64() < jobRegionShare {
		ps := bicoop.AllProtocols()
		return service.JobSpec{RegionBatch: &service.RegionJob{
			Scenarios: []bicoop.Scenario{scenarioFrom(r)},
			Curves: []bicoop.RegionCurve{
				{Protocol: ps[r.Intn(len(ps))], Bound: bicoop.Inner},
				{Protocol: ps[r.Intn(len(ps))], Bound: bicoop.Outer},
			},
			Angles:  31,
			Workers: nproc,
		}}
	}
	start := float64(r.Intn(21)) / 2
	job := &service.SweepJob{Bound: bicoop.Inner, Workers: nproc}
	if r.Intn(2) == 1 {
		job.Bound = bicoop.Outer
	}
	for k := range 20 {
		job.PowersDB = append(job.PowersDB, start+float64(k)/2)
	}
	for range 3 {
		job.Placements = append(job.Placements, placement(r))
	}
	return service.JobSpec{Sweep: job}
}

// sweepSpecOf and regionSpecOf convert a job's wire form to the engine spec
// the service runs, for the oracle and the traced run.
func sweepSpecOf(j *service.SweepJob) bicoop.SweepSpec {
	return bicoop.SweepSpec{
		Protocols: j.Protocols, Bound: j.Bound, Base: j.Base, PowersDB: j.PowersDB,
		Placements: j.Placements, Erasures: j.Erasures, Workers: j.Workers,
	}
}

func regionSpecOf(j *service.RegionJob) bicoop.RegionBatchSpec {
	return bicoop.RegionBatchSpec{Scenarios: j.Scenarios, Curves: j.Curves, Angles: j.Angles, Workers: j.Workers}
}
