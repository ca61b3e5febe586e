package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/stats"
)

// SystemMeasure identifies one of the three chapter 5 system measures.
type SystemMeasure int

// The modeled system measures.
const (
	MeasureMissRate SystemMeasure = iota
	MeasureBusBusy
	MeasurePageFaultRate
	numSystemMeasures
)

// NumSystemMeasures is the number of modeled system measures.
const NumSystemMeasures = int(numSystemMeasures)

// String names the measure as the study's tables do.
func (m SystemMeasure) String() string {
	switch m {
	case MeasureMissRate:
		return "Median Miss Rate"
	case MeasureBusBusy:
		return "Median CE Bus Busy"
	case MeasurePageFaultRate:
		return "Median Page Fault Rate"
	}
	return fmt.Sprintf("SystemMeasure(%d)", int(m))
}

// Selector returns the Columns selector for the measure.
func (m SystemMeasure) Selector() func(*SampleMeasures) (float64, bool) {
	switch m {
	case MeasureMissRate:
		return SelMissRate
	case MeasureBusBusy:
		return SelBusBusy
	case MeasurePageFaultRate:
		return SelPageFaultRate
	}
	return nil
}

// Grid constants of the section 5.2 median-binning procedure.
const (
	CwGridLo, CwGridHi, CwGridStep = 0.0, 1.0, 0.1
	PcGridLo, PcGridHi, PcGridStep = 2.0, 8.0, 1.0
)

// Model is one fitted regression: the quadratic, its median points,
// and which measure/axis it describes.
type Model struct {
	Measure SystemMeasure
	VsPc    bool // false: vs Workload Concurrency, true: vs Pc
	Fit     stats.QuadModel
	Points  []stats.MedianPoint
	Err     error // non-nil when the fit failed (too few points)
}

// modelJSON is Model's stored form: the error interface does not
// survive encoding/json, so a failed fit persists as its message.
type modelJSON struct {
	Measure SystemMeasure
	VsPc    bool
	Fit     stats.QuadModel
	Points  []stats.MedianPoint
	Err     string `json:",omitempty"`
}

// MarshalJSON encodes the model with its fit error flattened to a
// string, so fitted model sets round-trip through the campaign store.
func (m Model) MarshalJSON() ([]byte, error) {
	j := modelJSON{Measure: m.Measure, VsPc: m.VsPc, Fit: m.Fit, Points: m.Points}
	if m.Err != nil {
		j.Err = m.Err.Error()
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a stored model.
func (m *Model) UnmarshalJSON(data []byte) error {
	var j modelJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*m = Model{Measure: j.Measure, VsPc: j.VsPc, Fit: j.Fit, Points: j.Points}
	if j.Err != "" {
		m.Err = errors.New(j.Err)
	}
	return nil
}

// ModelSet holds the six chapter 5 regressions (three measures, two
// concurrency axes) — the contents of Tables 3 and 4.
type ModelSet struct {
	VsCw [NumSystemMeasures]Model
	VsPc [NumSystemMeasures]Model
}

// FitModels runs the full section 5.2 procedure over the sample set:
// for each system measure, median-bin against the Workload Concurrency
// grid (midpoints 0.0, 0.1, ..., 1.0) and against the Mean Concurrency
// Level grid (midpoints 2.0 ... 8.0, concurrency-defined samples
// only), then fit second-order models.
func FitModels(samples []SampleMeasures) ModelSet {
	var set ModelSet
	for m := SystemMeasure(0); m < SystemMeasure(NumSystemMeasures); m++ {
		sel := m.Selector()

		xs, ys := Columns(samples, SelCw, sel)
		fit, pts, err := stats.FitMedianModel(xs, ys, CwGridLo, CwGridHi, CwGridStep)
		set.VsCw[m] = Model{Measure: m, Fit: fit, Points: pts, Err: err}

		xs, ys = Columns(samples, SelPc, sel)
		fit, pts, err = stats.FitMedianModel(xs, ys, PcGridLo, PcGridHi, PcGridStep)
		set.VsPc[m] = Model{Measure: m, VsPc: true, Fit: fit, Points: pts, Err: err}
	}
	return set
}

// MissRateIncrease evaluates the headline prediction of the abstract:
// the ratio of the modeled median miss rate at full workload
// concurrency to its value at half concurrency (the study reports
// .007 -> .024, a greater-than-triple increase).
func (s ModelSet) MissRateIncrease() (atHalf, atFull, ratio float64) {
	m := s.VsCw[MeasureMissRate].Fit
	atHalf, atFull = m.Eval(0.5), m.Eval(1.0)
	if atHalf > 0 {
		ratio = atFull / atHalf
	}
	return atHalf, atFull, ratio
}
