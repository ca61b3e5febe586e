package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// The byte oracle of the campaign tools' output: absolute sha256s of
// every sweep kind's points and of every rendered artefact, committed
// in testdata/fingerprints.json.  internal/integration owns the "job/"
// entries of the same table.  Regenerate (and review the diff) with
//
//	go test ./internal/experiments -run Fingerprints -update
//	go test ./internal/integration -run TestSessionsJobResultMatchesFingerprint -update

var update = flag.Bool("update", false, "rewrite this package's entries of testdata/fingerprints.json from the current code")

// fingerprintsPath is the committed table.
const fingerprintsPath = "testdata/fingerprints.json"

// sweepFingerprintSamples sizes every point of the pinned sweeps.
const sweepFingerprintSamples = 2

// fingerprintsMu serializes -update's read-modify-write of the table
// between parallel tests.
var fingerprintsMu sync.Mutex

// checkFingerprints compares got with the table's entries under
// prefix, or under -update rewrites those entries and keeps the rest.
func checkFingerprints(t *testing.T, prefix string, got map[string]string) {
	t.Helper()
	fingerprintsMu.Lock()
	defer fingerprintsMu.Unlock()
	want := map[string]string{}
	raw, err := os.ReadFile(fingerprintsPath)
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if *update {
		for name := range want {
			if strings.HasPrefix(name, prefix) {
				delete(want, name)
			}
		}
		for name, sum := range got {
			want[name] = sum
		}
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var names []string
	for name := range want {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: sha256 %q, table has %q (regenerate with -update)", name, got[name], want[name])
		}
	}
}

// sum returns the hex sha256 of data.
func sum(data []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// artefactFingerprints hashes every registered table and figure and the
// full report rendered from st.
func artefactFingerprints(st *core.Study) map[string]string {
	got := map[string]string{"artefact/report": sum([]byte(FullReport(st)))}
	for _, r := range Tables() {
		got["artefact/table/"+r.Name] = sum([]byte(r.Render(st)))
	}
	for _, r := range Figures() {
		got["artefact/figure/"+r.Name] = sum([]byte(r.Render(st)))
	}
	return got
}

// TestArtefactFingerprints pins every artefact rendered from the quick
// study, and requires the study reloaded through EncodeStudy and
// DecodeStudy to render the same bytes.
func TestArtefactFingerprints(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	want := artefactFingerprints(st)
	checkFingerprints(t, "artefact/", want)

	enc, err := core.EncodeStudy(st)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.DecodeStudy(enc)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range artefactFingerprints(dec) {
		if got != want[name] {
			t.Errorf("%s: the decoded study renders sha256 %s, the computed one %s", name, got, want[name])
		}
	}
}

// TestSweepFingerprints pins every sweep kind's points at its default
// values, seed 1987 and sweepFingerprintSamples samples per point.
func TestSweepFingerprints(t *testing.T) {
	t.Parallel()
	got := map[string]string{}
	for _, kind := range SweepKinds() {
		pts, err := RunSweepConfig(SweepConfig{
			Kind:    kind,
			Values:  DefaultSweepValues(kind),
			Seed:    1987,
			Samples: sweepFingerprintSamples,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(pts)
		if err != nil {
			t.Fatal(err)
		}
		got["sweep/"+kind] = sum(data)
	}
	checkFingerprints(t, "sweep/", got)
}
