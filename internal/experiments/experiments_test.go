package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every experiment of the reproduction (Figs 3 and 4, their textual
	// claims, the ablations and the Monte Carlo extensions) is registered.
	want := []string{
		"fig3", "fig4a", "fig4b",
		"crossover", "hbc-escape", "mabc-tight",
		"delta-ablation", "pathloss",
		"fading", "bitsim", "bitsim-mabc",
		"dmc", "blahut",
		"baselines", "ber",
	}
	ids := IDs()
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
}

func TestDescribe(t *testing.T) {
	desc, err := Describe("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "Fig 3") {
		t.Errorf("description %q does not mention Fig 3", desc)
	}
	if _, err := Describe("nope"); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v, want ErrUnknown", err)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run(context.Background(), "nope", Config{Quick: true}); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v, want ErrUnknown", err)
	}
}

// TestRunAllQuick executes every registered experiment in quick mode and
// checks structural invariants plus the absence of UNEXPECTED findings.
func TestRunAllQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(context.Background(), id, Config{Quick: true, Seed: 1})
			if err != nil {
				t.Fatalf("Run(%q): %v", id, err)
			}
			if res.ID != id {
				t.Errorf("result ID = %q, want %q", res.ID, id)
			}
			if res.Description == "" {
				t.Error("empty description")
			}
			if len(res.Charts)+len(res.Tables)+len(res.Regions) == 0 {
				t.Error("experiment produced no output artifacts")
			}
			if len(res.Findings) == 0 {
				t.Error("experiment recorded no findings")
			}
			for _, f := range res.Findings {
				if strings.Contains(f, "UNEXPECTED") {
					t.Errorf("finding flags a reproduction failure: %s", f)
				}
			}
			// Charts must be renderable.
			var sb strings.Builder
			for _, c := range res.Charts {
				if err := c.Render(&sb); err != nil {
					t.Errorf("chart render: %v", err)
				}
				sb.Reset()
				if err := c.WriteCSV(&sb); err != nil {
					t.Errorf("chart CSV: %v", err)
				}
				sb.Reset()
			}
			for _, tab := range res.Tables {
				if err := tab.Render(&sb); err != nil {
					t.Errorf("table render: %v", err)
				}
				sb.Reset()
			}
			for _, rp := range res.Regions {
				if err := rp.Render(&sb); err != nil {
					t.Errorf("region render: %v", err)
				}
				sb.Reset()
			}
		})
	}
}

func TestFig3FindingMentionsStrictHBC(t *testing.T) {
	res, err := Run(context.Background(), "fig3", Config{Quick: false, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Findings, "\n")
	if !strings.Contains(joined, "strictly exceeds") {
		t.Errorf("fig3 did not find the strict HBC advantage: %s", joined)
	}
}

func TestFig4FindsEscapeAtHighSNR(t *testing.T) {
	res, err := Run(context.Background(), "fig4b", Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Findings, "\n")
	if !strings.Contains(joined, "outside BOTH") {
		t.Errorf("fig4b did not report escape points: %s", joined)
	}
}
