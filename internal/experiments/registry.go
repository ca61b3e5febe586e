package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
)

// Artefact registries: every table and figure of the paper addressed
// by name, shared by the cmd tools and the fx8d service so both
// expose exactly the same artefact set.

// StudyRenderer names one artefact derived from a completed campaign.
type StudyRenderer struct {
	Name   string
	Render func(*core.Study) string
}

// Tables lists the study's tables in paper order.
func Tables() []StudyRenderer {
	return []StudyRenderer{
		{"1", func(st *core.Study) string { return Table1(st.Overall) }},
		{"2", Table2},
		{"3", Table3},
		{"4", Table4},
		{"a1", TableA1},
	}
}

// Figures lists the study's figures in paper order (3-14, then the
// appendix series).
func Figures() []StudyRenderer {
	return []StudyRenderer{
		{"3", Figure3},
		{"4", Figure4},
		{"5", Figure5},
		{"6", Figure6},
		{"7", Figure7},
		{"8", Figure8},
		{"9", Figure9},
		{"10", Figure10},
		{"11", Figure11},
		{"12", Figure12},
		{"13", Figure13},
		{"14", Figure14},
		{"A.1", FigureA1A2},
		{"A.3", FigureA3},
		{"A.4", FigureA4},
		{"A.5", FigureA5},
		{"B.1", FigureB1},
		{"B.2", FigureB2},
		{"B.3", FigureB3},
		{"B.4", FigureB4},
		{"B.5", FigureB5},
		{"B.6", FigureB6},
		{"B.7", FigureB7},
		{"B.8", FigureB8},
		{"B.9", FigureB9},
		{"B.10", FigureB10},
	}
}

// lookup finds a renderer by case-insensitive name.
func lookup(rs []StudyRenderer, name string) (StudyRenderer, bool) {
	for _, r := range rs {
		if strings.EqualFold(r.Name, name) {
			return r, true
		}
	}
	return StudyRenderer{}, false
}

// HasTable reports whether name addresses a registered table —
// validity without the campaign, so the service can answer
// conditional requests before computing anything.
func HasTable(name string) bool {
	_, ok := lookup(Tables(), name)
	return ok
}

// HasFigure is HasTable for figures.
func HasFigure(name string) bool {
	_, ok := lookup(Figures(), name)
	return ok
}

// RenderTable renders the named table from a completed campaign.
func RenderTable(name string, st *core.Study) (string, bool) {
	r, ok := lookup(Tables(), name)
	if !ok {
		return "", false
	}
	return r.Render(st), true
}

// RenderFigure renders the named figure from a completed campaign.
func RenderFigure(name string, st *core.Study) (string, bool) {
	r, ok := lookup(Figures(), name)
	if !ok {
		return "", false
	}
	return r.Render(st), true
}

// Names lists the names in a renderer set, for error messages and
// service discovery.
func Names(rs []StudyRenderer) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}

// Parameter-sweep configurations, addressable and cacheable the same
// way campaigns are.

// sweepNamespace versions the stored encoding of sweep results.
const sweepNamespace = "sweep/v1"

// SweepConfig names one parameter sweep: the swept parameter, its
// values, and the per-point sampling.  It is the content-address key
// of cached sweep results.
type SweepConfig struct {
	// Kind selects the swept parameter: "sched" (scheduling
	// quantum), "cache" (shared cache bytes) or "ce" (CE count).
	Kind string

	// Values are the parameter values, in output order.
	Values []int

	// Seed and Samples size each sweep point's session.
	Seed    uint64
	Samples int
}

// SweepKey returns the content address of a sweep's cached points —
// the same key CachedSweep reads and writes, exported so the
// coordinator can assemble a campaign's points under the address the
// service and CLI tools already look up.
func SweepKey(cfg SweepConfig) (string, error) {
	return store.Key(sweepNamespace, cfg)
}

// Units expands the sweep into its work units, in output order.
func (cfg SweepConfig) Units() []SweepUnit {
	units := make([]SweepUnit, len(cfg.Values))
	for i, v := range cfg.Values {
		units[i] = SweepUnit{Kind: cfg.Kind, Value: v, Seed: cfg.Seed, Samples: cfg.Samples}
	}
	return units
}

// SweepKinds lists the valid sweep kinds.
func SweepKinds() []string { return []string{"sched", "cache", "ce"} }

// DefaultSweepValues returns the values the cmd tools sweep for a
// kind, or nil for an unknown kind.
func DefaultSweepValues(kind string) []int {
	switch kind {
	case "sched":
		return []int{10_000, 30_000, 100_000, 300_000, 1_000_000}
	case "cache":
		return []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
	case "ce":
		return []int{1, 2, 4, 8}
	}
	return nil
}

// SweepTitle returns the rendered table title for a kind.
func SweepTitle(kind string) string {
	switch kind {
	case "sched":
		return "Concurrency measures vs. scheduling quantum."
	case "cache":
		return "System measures vs. shared cache size."
	case "ce":
		return "Workload measures vs. CE count (FX/1..FX/8)."
	}
	return ""
}

// RunSweepConfig executes a sweep on the local worker pool.  Results
// are identical for every worker count.
func RunSweepConfig(cfg SweepConfig, workers int) ([]SweepPoint, error) {
	if DefaultSweepValues(cfg.Kind) == nil {
		return nil, fmt.Errorf("unknown sweep kind %q (valid kinds: %s)",
			cfg.Kind, strings.Join(SweepKinds(), ", "))
	}
	return engine.RunAll(context.Background(), workers, cfg.Units(), LocalSweepRunner(), nil)
}

// sweepMemo memoizes sweeps in-process, like core.CachedStudy does
// campaigns.  Keyed by the canonical store key because SweepConfig
// itself (a slice field) is not comparable.
var sweepMemo = engine.Memo[string, []SweepPoint]{MaxEntries: 16}

// CachedSweep returns the sweep for cfg through the same two tiers as
// campaigns: in-process memo, then the store (nil skips the disk
// tier), then RunSweepConfig.  hit reports whether any cache tier
// served the result.  Like the campaign cache, a store write failure
// never fails the call — the computed points are still returned.
func CachedSweep(s *store.Store, cfg SweepConfig, workers int) (pts []SweepPoint, hit bool, err error) {
	if DefaultSweepValues(cfg.Kind) == nil {
		// Reject unknown kinds before memoizing anything.
		_, err := RunSweepConfig(cfg, 1)
		return nil, false, err
	}
	key, err := SweepKey(cfg)
	if err != nil {
		return nil, false, err
	}
	computed := false
	pts = sweepMemo.Get(key, func() []SweepPoint {
		var cached []SweepPoint
		if store.GetJSON(s, key, &cached) {
			return cached
		}
		computed = true
		// The kind was validated above and the local runner cannot
		// fail on a valid kind.
		out, _ := RunSweepConfig(cfg, workers)
		store.PutJSON(s, key, out)
		return out
	})
	return pts, !computed, nil
}
