package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bicoop/internal/protocols"
)

func testScenarios(n int) []Scenario {
	out := make([]Scenario, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Scenario{
			PowerDB: -5 + 25*float64(i)/float64(n),
			GabDB:   -7 + float64(i%5),
			GarDB:   0,
			GbrDB:   5,
		})
	}
	return out
}

func testSpec() Spec {
	places := make([]Placement, 0, 12)
	for i := 0; i < 12; i++ {
		places = append(places, Placement{Pos: 0.08 + 0.07*float64(i), Exponent: 3})
	}
	return Spec{
		Base:       Scenario{GabDB: -7, GarDB: 0, GbrDB: 5},
		PowersDB:   []float64{0, 5, 10, 15},
		Placements: places,
		Erasures:   []Erasure{{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}, {EpsAR: 0.3, EpsBR: 0.3, EpsAB: 0.5}},
	}
}

// TestBatchBitIdenticalAcrossWorkers is the sharding determinism contract:
// every worker count produces the same bits, for the fast-path protocols and
// for the warm-started simplex ones alike.
func TestBatchBitIdenticalAcrossWorkers(t *testing.T) {
	scen := testScenarios(5*ChunkSize + 17)
	runBatch := func(proto protocols.Protocol, workers int) []Result {
		t.Helper()
		out := make([]Result, len(scen))
		n, err := Batch(context.Background(), proto, protocols.BoundInner, len(scen), Options{Workers: workers},
			func(i int) Scenario { return scen[i] },
			func(i int, r Result) { out[i] = r })
		if err != nil || n != len(scen) {
			t.Fatalf("%v workers=%d: n=%d err=%v", proto, workers, n, err)
		}
		return out
	}
	for _, proto := range []protocols.Protocol{protocols.TDBC, protocols.Naive4, protocols.HBC} {
		ref := runBatch(proto, 1)
		for _, workers := range []int{2, 3, 8} {
			got := runBatch(proto, workers)
			for i := range ref {
				if got[i].Sum != ref[i].Sum || got[i].Ra != ref[i].Ra || got[i].Rb != ref[i].Rb ||
					!reflect.DeepEqual(got[i].Durations, ref[i].Durations) {
					t.Fatalf("%v workers=%d: result %d differs: %+v vs %+v", proto, workers, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestSweepBitIdenticalAcrossWorkers pins sweep points — order, coordinates
// and every result bit — across worker counts.
func TestSweepBitIdenticalAcrossWorkers(t *testing.T) {
	spec := testSpec()
	collect := func(workers int) []Point {
		var pts []Point
		err := Sweep(context.Background(), spec, Options{Workers: workers}, func(pt Point) error {
			pts = append(pts, pt)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	ref := collect(1)
	if len(ref) != spec.Size() {
		t.Fatalf("got %d points, want %d", len(ref), spec.Size())
	}
	for i, pt := range ref {
		if pt.Index != i {
			t.Fatalf("point %d carries Index %d", i, pt.Index)
		}
	}
	for _, workers := range []int{2, 8} {
		got := collect(workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d sweep differs from sequential", workers)
		}
	}
}

// TestSweepWarmMatchesColdObjectives re-derives every Naive4/HBC sweep point
// with a cold evaluator and pins the warm-started objective to 1e-12.
func TestSweepWarmMatchesColdObjectives(t *testing.T) {
	spec := testSpec()
	spec.Protocols = []protocols.Protocol{protocols.Naive4, protocols.HBC}
	cold := protocols.NewEvaluator()
	err := Sweep(context.Background(), spec, Options{Workers: 1}, func(pt Point) error {
		if pt.ErasureIdx >= 0 {
			return nil
		}
		opt, err := cold.WeightedRate(pt.Proto, pt.Bound, pt.Scenario.internal(), 1, 1)
		if err != nil {
			return err
		}
		if d := pt.Sum - opt.Objective; d > 1e-12 || d < -1e-12 {
			t.Errorf("point %d (%v): warm %.17g cold %.17g", pt.Index, pt.Proto, pt.Sum, opt.Objective)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunEmitOrderAndPrefix checks the streaming sink contract under real
// concurrency: ascending chunk order, and a yield error halting the pool.
func TestRunEmitOrderAndPrefix(t *testing.T) {
	const n = 10*ChunkSize + 5
	var emitted []int
	sentinel := errors.New("stop")
	stopAt := 4 * ChunkSize
	prefix, err := Run(context.Background(), n, Options{Workers: 4},
		func(ev *protocols.Evaluator, lo, hi int) error { return nil },
		func(lo, hi int) error {
			if lo != len(emitted)*ChunkSize {
				return fmt.Errorf("emit out of order: lo=%d after %d chunks", lo, len(emitted))
			}
			emitted = append(emitted, lo)
			if lo == stopAt {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if prefix != stopAt {
		t.Errorf("prefix = %d, want %d", prefix, stopAt)
	}
}

// TestRunDoErrorOrder pins that the reported error is the first one in
// enumeration order, not completion order.
func TestRunDoErrorOrder(t *testing.T) {
	const n = 8 * ChunkSize
	early := errors.New("early")
	late := errors.New("late")
	_, err := Run(context.Background(), n, Options{Workers: 4},
		func(ev *protocols.Evaluator, lo, hi int) error {
			switch lo / ChunkSize {
			case 2:
				time.Sleep(20 * time.Millisecond)
				return early
			case 6:
				return late
			}
			return nil
		}, nil)
	if !errors.Is(err, early) {
		t.Fatalf("err = %v, want the error of the earliest chunk", err)
	}
}

// TestSweepChunkReportsLowestFailingIndex pins the error a chunk reports
// when it fails at several placements. Chunks visit their points placement
// by placement, so a later power row of a low placement can come up before
// an earlier row of a high one. Two protocols over three placements make a
// power row six points, so the resumed chunk [64, 128) opens inside row 10
// at placement 2. NaN powers at rows 10 and 11 fail points 64–65
// (placement 2) and 66–71 (all placements): the placement-0 visit meets 66
// before the placement-2 visit meets 64, and 64 must be reported.
func TestSweepChunkReportsLowestFailingIndex(t *testing.T) {
	powers := make([]float64, 30)
	for i := range powers {
		powers[i] = float64(i)
	}
	powers[10], powers[11] = math.NaN(), math.NaN()
	spec := Spec{
		Protocols:  []protocols.Protocol{protocols.DT, protocols.HBC},
		Base:       Scenario{GabDB: -7, GarDB: 0, GbrDB: 5},
		PowersDB:   powers,
		Placements: []Placement{{Pos: 0.25, Exponent: 3}, {Pos: 0.5, Exponent: 3}, {Pos: 0.75, Exponent: 3}},
	}
	for _, workers := range []int{1, 3} {
		err := Sweep(context.Background(), spec, Options{Workers: workers, Start: ChunkSize}, func(Point) error { return nil })
		var cerr *ChunkError
		if !errors.As(err, &cerr) || cerr.Start != ChunkSize {
			t.Fatalf("workers=%d: err = %v, want a *ChunkError for chunk [%d, %d)", workers, err, ChunkSize, 2*ChunkSize)
		}
		if !errors.Is(err, protocols.ErrBadScenario) || !strings.Contains(err.Error(), "sweep point 64:") {
			t.Errorf("workers=%d: err = %v, want point 64's ErrBadScenario", workers, err)
		}
	}
}

// TestRunCancellation proves a cancelled run stops promptly, reports the
// contiguous completed prefix, and leaks no goroutines.
func TestRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Bool
	go func() {
		for !started.Load() {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	var completed atomic.Int64
	const n = 1 << 20
	prefix, err := Run(ctx, n, Options{Workers: 2},
		func(ev *protocols.Evaluator, lo, hi int) error {
			started.Store(true)
			time.Sleep(time.Millisecond)
			completed.Add(1)
			return nil
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if prefix < 0 || prefix >= n {
		t.Errorf("prefix = %d, want a strict partial prefix", prefix)
	}
	if int(completed.Load()) >= n/ChunkSize {
		t.Error("run ignored cancellation")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestRunCancellationCause pins the wrapped-cause contract shared with
// internal/sim.
func TestRunCancellationCause(t *testing.T) {
	cause := errors.New("shutting down")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, err := Run(ctx, 1000, Options{Workers: 4},
		func(ev *protocols.Evaluator, lo, hi int) error { return nil }, nil)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
		t.Errorf("err = %v, want context.Canceled wrapping the cause", err)
	}
}

// TestSpecSizeAndErasures covers axis defaulting and the erasures-only
// shape.
func TestSpecSizeAndErasures(t *testing.T) {
	spec := testSpec()
	want := 4*12*len(protocols.Protocols()) + 2
	if got := spec.Size(); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	only := Spec{Erasures: spec.Erasures}
	if got := only.Size(); got != 2 {
		t.Fatalf("erasures-only Size = %d, want 2", got)
	}
	var pts []Point
	if err := Sweep(context.Background(), only, Options{Workers: 1}, func(pt Point) error {
		pts = append(pts, pt)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].ErasureIdx != 0 || pts[1].ErasureIdx != 1 {
		t.Fatalf("erasures-only sweep yielded %+v", pts)
	}
	for _, pt := range pts {
		if pt.Proto != protocols.TDBC || pt.Bound != protocols.BoundInner {
			t.Errorf("erasure point evaluated %v %v, want TDBC inner", pt.Proto, pt.Bound)
		}
	}
}
