package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

func registryStudy() *core.Study {
	return core.DefaultStudyCache.Get(core.QuickScale(), 0)
}

func TestRegistryCoversAllArtefacts(t *testing.T) {
	if len(Tables()) != 5 {
		t.Errorf("table registry has %d entries, want 5", len(Tables()))
	}
	if len(Figures()) != 26 {
		t.Errorf("figure registry has %d entries, want 26", len(Figures()))
	}
	st := registryStudy()
	for _, r := range append(Tables(), Figures()...) {
		if out := r.Render(st); out == "" {
			t.Errorf("artefact %q rendered empty", r.Name)
		}
	}
}

func TestRenderLookupIsCaseInsensitive(t *testing.T) {
	st := registryStudy()
	lower, ok1 := RenderTable("a1", st)
	upper, ok2 := RenderTable("A1", st)
	if !ok1 || !ok2 || lower != upper {
		t.Error("table lookup is case-sensitive")
	}
	if _, ok := RenderFigure("b.3", st); !ok {
		t.Error("figure lookup is case-sensitive")
	}
	if _, ok := RenderFigure("99", st); ok {
		t.Error("unknown figure resolved")
	}
}

func TestRunSweepConfigRejectsUnknownKind(t *testing.T) {
	_, err := RunSweepConfig(SweepConfig{Kind: "bogus"}, 1)
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, k := range SweepKinds() {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("error %q does not enumerate kind %q", err, k)
		}
	}
}

func TestCachedSweepTwoTier(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Kind: "ce", Values: []int{1, 2}, Seed: 91, Samples: 1}
	pts, hit, err := CachedSweep(s, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("cold sweep reported a cache hit")
	}
	if len(pts) != 2 || pts[0].Label != "CEs=1" {
		t.Fatalf("sweep points = %+v", pts)
	}
	// Memo tier.
	again, hit, err := CachedSweep(s, cfg, 0)
	if err != nil || !hit {
		t.Fatalf("warm sweep: hit=%v err=%v", hit, err)
	}
	if len(again) != len(pts) || again[0] != pts[0] {
		t.Error("memo tier returned different points")
	}
	// Disk tier: the store has the entry under the canonical key.
	key, _ := store.Key(sweepNamespace, cfg)
	var fromDisk []SweepPoint
	if !store.GetJSON(s, key, &fromDisk) {
		t.Fatal("sweep not written to the store")
	}
	if len(fromDisk) != len(pts) || fromDisk[1] != pts[1] {
		t.Error("disk tier drifted from computed points")
	}
	// Unknown kinds fail without poisoning the memo.
	if _, _, err := CachedSweep(s, SweepConfig{Kind: "nope"}, 0); err == nil {
		t.Error("unknown kind accepted by CachedSweep")
	}
}

func TestDefaultSweepValuesMatchKinds(t *testing.T) {
	for _, k := range SweepKinds() {
		if DefaultSweepValues(k) == nil {
			t.Errorf("kind %q has no default values", k)
		}
		if SweepTitle(k) == "" {
			t.Errorf("kind %q has no title", k)
		}
	}
	if DefaultSweepValues("bogus") != nil {
		t.Error("unknown kind has default values")
	}
}
