package service

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bicoop"
)

func TestLoadLogCheckpointEmptyFileIsFresh(t *testing.T) {
	// A crash between creating the checkpoint file and the first completed
	// write leaves a zero-length file; that is a fresh run, not corruption.
	path := filepath.Join(t.TempDir(), "ck")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := loadLogCheckpoint(path)
	if err != nil || ck.Watermark != 0 || ck.Offset != 0 {
		t.Fatalf("empty checkpoint: (%+v, %v), want fresh run", ck, err)
	}
}

func TestLoadLogCheckpointCorruptFailsLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	for _, body := range []string{"not json", `{"watermark":-3,"offset":0}`, `{"watermark":1,"offset":-9}`} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadLogCheckpoint(path)
		if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint") {
			t.Errorf("body %q: err = %v, want corrupt-checkpoint error", body, err)
		}
	}
}

func TestOpenResultLogResumeNeedsOutputFile(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "ck")
	if err := os.WriteFile(ckPath, []byte(`{"watermark":5,"offset":100}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenResultLog(filepath.Join(dir, "missing.csv"), ckPath)
	if err == nil || !strings.Contains(err.Error(), "expects output") {
		t.Errorf("resume without the output file: err = %v", err)
	}
}

// interruptResume drives an emitter through deadline interruptions until it
// completes, then checks the final file is byte-identical to want.
func interruptResume(t *testing.T, want []byte, run func(ctx context.Context, log *ResultLog) error) {
	t.Helper()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	ckPath := filepath.Join(dir, "ck")
	for attempt := 0; attempt < 200; attempt++ {
		log, err := OpenResultLog(csvPath, ckPath)
		if err != nil {
			t.Fatal(err)
		}
		// The budget grows with the attempt so the loop always terminates.
		budget := time.Duration(2+3*attempt) * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		runErr := run(ctx, log)
		cancel()
		if cerr := log.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if runErr == nil {
			// The harness proves nothing unless a deadline actually fired
			// mid-run at least once before the completing attempt.
			if attempt == 0 {
				t.Fatal("run completed within the first budget; grow the workload so resume is exercised")
			}
			got, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("after %d interruptions: output differs from uninterrupted run (got %d bytes, want %d)", attempt, len(got), len(want))
			}
			return
		}
		if !errors.Is(runErr, context.DeadlineExceeded) {
			t.Fatalf("attempt %d: %v", attempt, runErr)
		}
	}
	t.Fatal("run never completed within the attempt budget")
}

func TestRunSweepInterruptResumeByteIdentical(t *testing.T) {
	eng := bicoop.NewEngine()
	spec := bicoop.SweepSpec{
		Base:     testScenario,
		PowersDB: powerAxis(0, 20, 0.05),
		Workers:  2,
	}
	want := referenceCSV(t, JobSpec{Sweep: &SweepJob{
		Base: spec.Base, PowersDB: spec.PowersDB, Workers: spec.Workers,
	}})
	interruptResume(t, want, func(ctx context.Context, log *ResultLog) error {
		return RunSweep(ctx, eng, spec, log)
	})
}

func TestRunRegionBatchInterruptResumeByteIdentical(t *testing.T) {
	eng := bicoop.NewEngine()
	spec := bicoop.RegionBatchSpec{
		Scenarios: []bicoop.Scenario{
			testScenario,
			{PowerDB: 5, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 15, GabDB: -4, GarDB: 2, GbrDB: 3},
		},
		Curves: []bicoop.RegionCurve{
			{Protocol: bicoop.MABC, Bound: bicoop.Inner},
			{Protocol: bicoop.TDBC, Bound: bicoop.Inner},
			{Protocol: bicoop.HBC, Bound: bicoop.Outer},
		},
		// 721 angles keeps the batch comfortably larger than the first
		// interrupt budget on fast machines (241 angles finished in about
		// 1.4 ms on a 2-core Xeon once warm-started solves became
		// factorization-only), so the resume path is always exercised at
		// least once.
		Angles:  721,
		Workers: 2,
	}
	want := referenceCSV(t, JobSpec{RegionBatch: &RegionJob{
		Scenarios: spec.Scenarios, Curves: spec.Curves, Angles: spec.Angles, Workers: spec.Workers,
	}})
	interruptResume(t, want, func(ctx context.Context, log *ResultLog) error {
		return RunRegionBatch(ctx, eng, spec, log)
	})
}

func TestRunCampaignInterruptResumeByteIdentical(t *testing.T) {
	eng := bicoop.NewEngine()
	var specs []bicoop.SimSpec
	var jobs []SimJob
	for seed := int64(1); seed <= 10; seed++ {
		specs = append(specs, bicoop.SimSpec{
			Fading: &bicoop.FadingSpec{Scenario: testScenario},
			Trials: 500, Seed: seed,
		})
		jobs = append(jobs, SimJob{
			Fading: &bicoop.FadingSpec{Scenario: testScenario},
			Trials: 500, Seed: seed,
		})
	}
	spec := bicoop.CampaignSpec{Specs: specs, Workers: 2}
	want := referenceCSV(t, JobSpec{Campaign: &CampaignJob{Specs: jobs, Workers: 2}})
	interruptResume(t, want, func(ctx context.Context, log *ResultLog) error {
		return RunCampaign(ctx, eng, spec, log)
	})
}
