// Package monitor simulates the study's instrumentation: a DAS
// 9100-class logic analyzer probing the cluster's buses (hardware
// level) and the Concentrix kernel counters (software level), plus the
// control programs that ran acquisitions and reduced buffers to event
// counts.
//
// The monitor is non-intrusive by construction: it only reads the
// per-cycle signal snapshot the cluster exposes and never perturbs
// execution, matching the measurement philosophy of chapter 3.
package monitor

import "repro/internal/trace"

// BufferDepth is the DAS 9100's acquisition memory depth.
const BufferDepth = 512

// TriggerMode selects the acquisition trigger comparator.
type TriggerMode int

const (
	// TriggerImmediate begins storing on the first observed cycle —
	// the random workload sampling mode.
	TriggerImmediate TriggerMode = iota

	// TriggerAll8 begins storing when every CE is active — the
	// high-concurrency capture mode (ten sessions in the study).
	TriggerAll8

	// TriggerTransition begins storing when the active count drops
	// from all-8 to fewer — the concurrency transition mode (five
	// sessions in the study).
	TriggerTransition
)

// String names the trigger mode.
func (m TriggerMode) String() string {
	switch m {
	case TriggerImmediate:
		return "immediate"
	case TriggerAll8:
		return "all-8-active"
	case TriggerTransition:
		return "8-to-fewer transition"
	}
	return "unknown"
}

// DAS is the logic analyzer: an armed trigger comparator and a
// fixed-depth buffer of packed records.  Observe is called once per
// machine cycle with the latched probe signals.
type DAS struct {
	// Buffer depth and timebase are the instrument's hardware
	// geometry; Reset clears an acquisition, not the instrument
	// (fxlint:keep).
	depth      int // fxlint:keep
	every      int // store one record per this many observed cycles; fxlint:keep
	phase      int
	mode       TriggerMode
	armed      bool
	triggered  bool
	prevActive int
	buf        []uint64 // packed records, as stored by the probe pods

	// Acquisitions counts completed (filled) buffers.
	Acquisitions uint64
}

// Timebase is the default sampling decimation: the instrument's
// sample clock stores one record per this many bus cycles, so a full
// buffer spans Timebase*BufferDepth cycles of machine time — wide
// enough to cover an entire end-of-loop transition.
const Timebase = 4

// NewDAS returns an analyzer with the standard buffer depth and
// timebase.
func NewDAS() *DAS { return NewDASDepth(BufferDepth, Timebase) }

// NewDASDepth returns an analyzer with a custom buffer depth and
// sampling timebase (the instrument's record clock is selectable).
func NewDASDepth(depth, every int) *DAS {
	if depth < 1 {
		depth = 1
	}
	if every < 1 {
		every = 1
	}
	return &DAS{depth: depth, every: every, buf: make([]uint64, 0, depth)}
}

// Arm clears the buffer and arms the trigger in the given mode.
func (d *DAS) Arm(mode TriggerMode) {
	d.mode = mode
	d.armed = true
	d.triggered = mode == TriggerImmediate
	d.prevActive = -1
	d.phase = 0
	d.buf = d.buf[:0]
}

// Armed reports whether an acquisition is in progress.
func (d *DAS) Armed() bool { return d.armed }

// Reset returns the analyzer to its just-constructed state — disarmed,
// buffer empty, acquisition counter zeroed — reusing the buffer's
// backing array.  Depth and timebase are kept.
func (d *DAS) Reset() {
	d.mode = TriggerImmediate
	d.armed = false
	d.triggered = false
	d.prevActive = 0
	d.phase = 0
	d.buf = d.buf[:0]
	d.Acquisitions = 0
}

// waiting reports whether the trigger comparator is armed and has
// watched at least one cycle without firing: observing a further cycle
// with the same activity count cannot fire it.
func (d *DAS) waiting() bool { return d.armed && !d.triggered && d.prevActive >= 0 }

// Full reports whether the buffer has filled since the last Arm.
func (d *DAS) Full() bool { return !d.armed && len(d.buf) == d.depth }

// Observe latches one cycle's probe signals.  Before the trigger
// condition is met the comparator watches the activity bits on every
// cycle; once triggered, one record per timebase tick is stored until
// the buffer fills.
func (d *DAS) Observe(r trace.Record) {
	if !d.armed {
		return
	}
	if !d.triggered && !d.watch(r.ActiveCount()) {
		return
	}
	if d.phase == 0 {
		d.store(r)
	}
	d.tick()
}

// Probe is the machine-side view the analyzer's pods latch: the
// activity count the trigger comparator watches, and the full signal
// record when the record clock stores one.  ActiveCount must equal
// Snapshot().ActiveCount(); fx8.Cluster satisfies both.
type Probe interface {
	ActiveCount() int
	Snapshot() trace.Record
}

// ObserveProbe is Observe against a live machine: it latches only the
// signals the analyzer actually inspects this cycle — the activity
// bits while the comparator awaits its trigger, the full record on
// record-clock ticks, and nothing between ticks — so the hot sampling
// loop does not pay for a full probe snapshot on cycles the
// instrument ignores.  It behaves identically to calling
// Observe(p.Snapshot()) every cycle.
func (d *DAS) ObserveProbe(p Probe) {
	if !d.armed {
		return
	}
	if !d.triggered && !d.watch(p.ActiveCount()) {
		return
	}
	if d.phase == 0 {
		d.store(p.Snapshot())
	}
	d.tick()
}

// watch runs the trigger comparator on one cycle's activity count and
// reports whether the analyzer is (now) triggered.
func (d *DAS) watch(n int) bool {
	switch d.mode {
	case TriggerAll8:
		if n == trace.NumCE {
			d.triggered = true
		}
	case TriggerTransition:
		if d.prevActive == trace.NumCE && n < trace.NumCE {
			d.triggered = true
		}
	}
	d.prevActive = n
	return d.triggered
}

// store packs one record into the buffer, disarming on fill.
func (d *DAS) store(r trace.Record) {
	d.buf = append(d.buf, r.Pack())
	if len(d.buf) == d.depth {
		d.armed = false
		d.Acquisitions++
	}
}

// tick advances the record clock one cycle.
func (d *DAS) tick() {
	d.phase++
	if d.phase == d.every {
		d.phase = 0
	}
}

// Transfer returns the acquired records (unpacking the pod words) and
// leaves the buffer intact until the next Arm.  Transferring a
// partially filled buffer is allowed, matching the instrument's
// host-initiated readout.
func (d *DAS) Transfer() []trace.Record {
	out := make([]trace.Record, len(d.buf))
	for i, w := range d.buf {
		out[i] = trace.Unpack(w)
	}
	return out
}

// ReduceBuffer reduces the acquired buffer straight from the packed
// pod words — the counts Transfer+Reduce would produce, without
// materializing the record slice.
func (d *DAS) ReduceBuffer() EventCounts {
	var e EventCounts
	for _, w := range d.buf {
		e.AddRecord(trace.Unpack(w))
	}
	return e
}

// Depth returns the configured buffer depth.
func (d *DAS) Depth() int { return d.depth }

// Span returns the machine cycles a full buffer covers.
func (d *DAS) Span() int { return d.depth * d.every }
