package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// LayerRule forbids one set of import edges: no package matching Pkgs
// may depend (directly or transitively) on a package matching Deny.
type LayerRule struct {
	// Pkgs are the constrained import paths (exact matches).
	Pkgs []string

	// Deny are forbidden dependency paths: an exact import path, or
	// a prefix when it ends in "/".
	Deny []string

	// Allow exempts paths from Deny, matched the same way, so a rule
	// can deny a whole prefix and list the few packages it permits.
	Allow []string

	// Why names the invariant the rule encodes, quoted in the
	// diagnostic so a failure explains itself.
	Why string
}

func (r *LayerRule) denies(dep string) bool {
	return matchesAny(r.Deny, dep) && !matchesAny(r.Allow, dep)
}

// matchesAny reports whether dep is one of paths, or lies under one
// that ends in "/".
func matchesAny(paths []string, dep string) bool {
	for _, p := range paths {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(dep, p) {
				return true
			}
		} else if dep == p {
			return true
		}
	}
	return false
}

// LayerRules is the repo's import-DAG whitelist.  The table is a
// variable so tests can run the analyzer against fixture rules.
var LayerRules = []*LayerRule{
	{
		Pkgs: []string{"repro/internal/obs"},
		Deny: []string{"repro/"},
		Why:  "obs is the telemetry substrate every layer imports; it must stay stdlib-only or instrumentation creates import cycles",
	},
	{
		Pkgs: []string{"repro/internal/perf"},
		Deny: []string{"repro/"},
		Why:  "perf is a leaf: benchmark parsing must not pull simulator or service code into cmd/benchdiff",
	},
	{
		Pkgs: []string{
			"repro/internal/fx8",
			"repro/internal/concentrix",
			"repro/internal/monitor",
			"repro/internal/workload",
			"repro/internal/fxasm",
		},
		Deny: []string{
			"repro/internal/service",
			"repro/internal/remote",
			"repro/internal/store",
			"repro/internal/engine",
			"repro/internal/obs",
			"repro/internal/coord",
			"repro/internal/chaos",
		},
		Why: "the simulator stack must stay a pure library: serving, distribution, persistence, telemetry and fault injection layer above it",
	},
	{
		Pkgs: []string{"repro/internal/core", "repro/internal/experiments"},
		Deny: []string{
			"repro/internal/service",
			"repro/internal/remote",
			"repro/internal/coord",
			"repro/internal/chaos",
		},
		Why: "the measurement/experiment layer is what the service serves; dispatch and chaos belong to the distribution layers above it",
	},
	{
		Pkgs:  []string{"repro/internal/remote"},
		Deny:  []string{"repro/"},
		Allow: []string{"repro/internal/obs"},
		Why:   "remote is only the HTTP transport; scheduling and retrying belong to coord, so remote needs nothing above obs and importing core or experiments would invite a second dispatcher",
	},
	{
		Pkgs: []string{"repro/internal/chaos"},
		Deny: []string{"repro/internal/service"},
		Why:  "chaos injects faults at the transport, disk and process seams; it may import those seams (remote, store, coord) but never the service that fronts them",
	},
	{
		Pkgs: []string{"repro/internal/coord"},
		Deny: []string{"repro/internal/service"},
		Why:  "the service fronts the coordinator over HTTP; the coordinator importing the service inverts the DAG",
	},
}

// LayeringAnalyzer enforces LayerRules over the transitive import
// graph, replacing the CI grep that only guarded internal/obs.
var LayeringAnalyzer = &Analyzer{
	Name: "layering",
	Doc:  "enforce the import-DAG whitelist (obs/perf stdlib-only, simulator below service/remote/store)",
	Run:  runLayering,
}

func runLayering(pass *Pass) {
	path := pass.Pkg.ImportPath
	for _, rule := range LayerRules {
		constrained := false
		for _, p := range rule.Pkgs {
			if p == path {
				constrained = true
				break
			}
		}
		if !constrained {
			continue
		}
		deps := pass.Prog.Deps(path)
		var bad []string
		for dep := range deps {
			if dep != path && rule.denies(dep) {
				bad = append(bad, dep)
			}
		}
		sort.Strings(bad)
		reported := make(map[string]bool)
		for _, dep := range bad {
			chain := importChain(pass.Prog, path, dep)
			// Reporting per first forbidden hop keeps one diagnostic
			// per leaked edge rather than one per transitive target.
			if reported[chain[0]] {
				continue
			}
			reported[chain[0]] = true
			pass.Reportf(importPos(pass, chain[0]),
				"%s must not depend on %s (via %s): %s",
				path, dep, strings.Join(append([]string{path}, chain...), " -> "), rule.Why)
		}
	}
}

// importChain returns the shortest import path from 'from' (exclusive)
// to 'to' (inclusive) in prog's graph.
func importChain(prog *Program, from, to string) []string {
	type node struct {
		path string
		prev *node
	}
	visited := map[string]bool{from: true}
	queue := []*node{{path: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		pkg, ok := prog.Pkgs[cur.path]
		if !ok {
			continue
		}
		imports := append([]string(nil), pkg.Imports...)
		sort.Strings(imports)
		for _, imp := range imports {
			if visited[imp] {
				continue
			}
			visited[imp] = true
			next := &node{path: imp, prev: cur}
			if imp == to {
				var chain []string
				for n := next; n.prev != nil; n = n.prev {
					chain = append([]string{n.path}, chain...)
				}
				return chain
			}
			queue = append(queue, next)
		}
	}
	return []string{to}
}

// importPos locates the import declaration of dep in the package under
// analysis, so the diagnostic anchors at the offending line; falls
// back to the first file when the edge is transitive.
func importPos(pass *Pass, dep string) token.Pos {
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == dep {
				return imp.Pos()
			}
		}
	}
	if len(pass.Pkg.Files) > 0 {
		return pass.Pkg.Files[0].Package
	}
	return token.NoPos
}

// DescribeRules renders the whitelist, one "constrained !-> denied"
// line per rule, for fxlint -list output.
func DescribeRules() string {
	var b strings.Builder
	for _, r := range LayerRules {
		fmt.Fprintf(&b, "  %s !-> %s\n", strings.Join(r.Pkgs, ", "), strings.Join(r.Deny, ", "))
	}
	return b.String()
}
