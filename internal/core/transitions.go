package core

import "repro/internal/trace"

// TransitionStats is the record-level analysis of section 4.3: over
// buffers captured by the 8-to-fewer transition trigger, the
// distribution of the number of active processors and, within the
// transition states (2..7 active), the activity of each individual
// processor.
type TransitionStats struct {
	// Num[j] counts records with j processors active across all
	// transition buffers.
	Num [P + 1]int

	// Prof[i] counts records in a transition state (2..7 active)
	// where processor i was active — Figure 7's distribution.
	Prof [P]int

	// Records is the total record count analyzed;
	// TransitionRecords the count in transition states.
	Records           int
	TransitionRecords int
}

// AnalyzeTransitions reduces transition-triggered buffers.
func AnalyzeTransitions(buffers []trace.Buffer) TransitionStats {
	var t TransitionStats
	for _, buf := range buffers {
		for _, r := range buf {
			t.AddRecord(r)
		}
	}
	return t
}

// AddRecord accumulates one record.
func (t *TransitionStats) AddRecord(r trace.Record) {
	t.Records++
	n := r.ActiveCount()
	t.Num[n]++
	if n >= 2 && n <= P-1 {
		t.TransitionRecords++
		for i, a := range r.Active {
			if a {
				t.Prof[i]++
			}
		}
	}
}

// Add merges another stat set.
func (t *TransitionStats) Add(o TransitionStats) {
	t.Records += o.Records
	t.TransitionRecords += o.TransitionRecords
	for i := range t.Num {
		t.Num[i] += o.Num[i]
	}
	for i := range t.Prof {
		t.Prof[i] += o.Prof[i]
	}
}

// TransitionShare returns the fraction of transition-state records
// with exactly j processors active (Figure 6's percentages).
func (t TransitionStats) TransitionShare(j int) float64 {
	if t.TransitionRecords == 0 || j < 2 || j > P-1 {
		return 0
	}
	return float64(t.Num[j]) / float64(t.TransitionRecords)
}

// DominantPair returns the two processors most active during
// transition states — the study found CEs 7 and 0.
func (t TransitionStats) DominantPair() (first, second int) {
	first, second = -1, -1
	for i, c := range t.Prof {
		switch {
		case first == -1 || c > t.Prof[first]:
			second = first
			first = i
		case second == -1 || c > t.Prof[second]:
			second = i
		}
	}
	return first, second
}
