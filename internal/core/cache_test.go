package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/monitor"
	"repro/internal/store"
)

// tinyConfig is a minimal but structurally complete campaign for
// cache-behavior tests: one session of each kind, a handful of
// samples, milliseconds of machine time.
func tinyConfig() StudyConfig {
	return StudyConfig{
		RandomSessions:     1,
		HighConcSessions:   1,
		TransitionSessions: 1,
		SamplesPerSession:  2,
		Sampling:           monitor.SampleSpec{Snapshots: 2, GapCycles: 2_000},
		TriggeredSamples:   1,
		TriggeredBuffers:   1,
		TriggerBudget:      50_000,
		BaseSeed:           42,
	}
}

func TestStudyEncodingRoundTrips(t *testing.T) {
	t.Parallel()
	st := RunStudy(tinyConfig())
	enc, err := EncodeStudy(st)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeStudy(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := EncodeStudy(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("encode(decode(encode(study))) differs from encode(study): encoding is not canonical")
	}
	if dec.Overall != st.Overall {
		t.Error("Overall counts drifted through the codec")
	}
	if len(dec.AllSamples) != len(st.AllSamples) {
		t.Errorf("AllSamples = %d, want %d", len(dec.AllSamples), len(st.AllSamples))
	}
	if len(dec.Transition) != len(st.Transition) ||
		len(dec.Transition[0].Buffers) != len(st.Transition[0].Buffers) {
		t.Error("trigger buffers drifted through the codec")
	}
	for i, buf := range dec.Transition[0].Buffers {
		for j, rec := range buf {
			if rec != st.Transition[0].Buffers[i][j] {
				t.Fatalf("buffer %d record %d drifted through the packed-record codec", i, j)
			}
		}
	}
}

func TestStudyCacheComputeThenDisk(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := tinyConfig()

	// First process: memory and disk both cold, so the campaign is
	// computed once and written back.
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewStudyCache()
	c1.SetStore(s1)
	first := c1.Get(cfg, 0)
	if st := c1.Stats(); st.Computes != 1 || st.DiskHits != 0 {
		t.Fatalf("first get stats = %+v, want one compute", st)
	}
	if again := c1.Get(cfg, 0); again != first {
		t.Error("second get in the same process did not hit the memo")
	}
	if st := c1.Stats(); st.MemoryHits != 1 {
		t.Errorf("stats = %+v, want one memory hit", st)
	}

	// Second process (fresh cache, same directory): served from disk
	// without recomputing, byte-identical under the canonical
	// encoding.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewStudyCache()
	c2.SetStore(s2)
	second := c2.Get(cfg, 0)
	if st := c2.Stats(); st.DiskHits != 1 || st.Computes != 0 {
		t.Fatalf("second process stats = %+v, want one disk hit and no computes", st)
	}
	e1, _ := EncodeStudy(first)
	e2, _ := EncodeStudy(second)
	if !bytes.Equal(e1, e2) {
		t.Error("disk-restored study is not byte-identical to the computed one")
	}
}

func TestStudyCacheSingleflight(t *testing.T) {
	t.Parallel()
	c := NewStudyCache()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.SetStore(s)
	cfg := tinyConfig()
	const n = 16
	var wg sync.WaitGroup
	results := make([]*Study, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Get(cfg, 2)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent gets returned distinct studies")
		}
	}
	if st := c.Stats(); st.Computes != 1 {
		t.Errorf("%d concurrent identical gets ran %d campaigns, want exactly 1", n, st.Computes)
	}
}

func TestStudyCacheCorruptEntryRecomputed(t *testing.T) {
	t.Parallel()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	key, err := StudyKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A store-valid entry whose payload is not a study: passes the
	// checksum, fails the decode, must be recomputed.
	if err := s.Put(key, []byte("not a study")); err != nil {
		t.Fatal(err)
	}
	c := NewStudyCache()
	c.SetStore(s)
	if st := c.Get(cfg, 0); st == nil || len(st.Random) != cfg.RandomSessions {
		t.Fatal("recomputed study malformed")
	}
	if st := c.Stats(); st.Computes != 1 || st.StoreErrors != 1 {
		t.Errorf("stats = %+v, want one compute and one store error", st)
	}
}

func TestStudyCachePurge(t *testing.T) {
	t.Parallel()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewStudyCache()
	c.SetStore(s)
	cfg := tinyConfig()
	c.Get(cfg, 0)
	c.Get(cfg, 0)
	if st := c.Stats(); st.Computes != 1 || st.MemoryHits != 1 || s.Len() != 1 {
		t.Fatalf("stats = %+v, store entries = %d: campaign not cached in both tiers", st, s.Len())
	}
	if err := c.Purge(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Error("Purge left store entries behind")
	}
	// A Get after Purge finds neither tier: a surviving memo entry
	// would count a memory hit, a surviving store entry a disk hit.
	c.Get(cfg, 0)
	if st := c.Stats(); st.Computes != 2 || st.MemoryHits != 1 || st.DiskHits != 0 {
		t.Errorf("stats after purge = %+v, want a second compute and no new hit", st)
	}
}

func TestScaleConfigErrorEnumeratesScales(t *testing.T) {
	t.Parallel()
	_, err := ScaleConfig("bogus")
	if err == nil {
		t.Fatal("unknown scale accepted")
	}
	for _, name := range ScaleNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention valid scale %q", err, name)
		}
		if _, err := ScaleConfig(name); err != nil {
			t.Errorf("ScaleConfig(%q) = %v", name, err)
		}
	}
}
