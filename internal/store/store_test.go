package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func timeFromUnix(sec int64) time.Time { return time.Unix(sec, 0) }

func open(t *testing.T, opts ...Option) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t)
	key, err := Key("test/v1", struct{ A, B int }{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("campaign artefact bytes")
	if _, ok := s.Get(key); ok {
		t.Fatal("Get before Put reported a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 write", st)
	}
}

func TestKeyIsStableAndConfigSensitive(t *testing.T) {
	type cfg struct{ Seed uint64 }
	a1, _ := Key("ns", cfg{1})
	a2, _ := Key("ns", cfg{1})
	b, _ := Key("ns", cfg{2})
	other, _ := Key("other", cfg{1})
	if a1 != a2 {
		t.Error("identical configs produced different keys")
	}
	if a1 == b {
		t.Error("different configs collided")
	}
	if a1 == other {
		t.Error("different namespaces collided")
	}
	if len(a1) != 64 || strings.ToLower(a1) != a1 {
		t.Errorf("key %q is not lowercase hex sha256", a1)
	}
}

// TestPartialWriteDetected simulates a crash mid-write (or later
// truncation): the payload is shorter than the header claims, so the
// entry must read as a miss and be removed.
func TestPartialWriteDetected(t *testing.T) {
	s := open(t)
	key, _ := Key("test/v1", 1)
	if err := s.Put(key, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Error("truncated entry served as a hit")
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Error("truncated entry not removed")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", st.Corrupt)
	}
	// Recompute path: a fresh Put must restore service.
	if err := s.Put(key, []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "recomputed" {
		t.Errorf("recomputed entry = %q, %v", got, ok)
	}
}

// TestCorruptPayloadDetected flips payload bytes without touching the
// length, exercising the checksum.
func TestCorruptPayloadDetected(t *testing.T) {
	s := open(t)
	key, _ := Key("test/v1", 2)
	if err := s.Put(key, []byte("sensitive measurement data")); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(s.path(key))
	raw[len(raw)-3] ^= 0xff
	os.WriteFile(s.path(key), raw, 0o644)
	if _, ok := s.Get(key); ok {
		t.Error("bit-flipped entry served as a hit")
	}
}

// TestVersionMismatchInvalidates rewrites an entry with a future
// format version; it must read as a miss (format changes invalidate
// cleanly) and be removed.
func TestVersionMismatchInvalidates(t *testing.T) {
	s := open(t)
	key, _ := Key("test/v1", 3)
	if err := s.Put(key, []byte("old world")); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(s.path(key))
	bumped := bytes.Replace(raw, []byte(fmt.Sprintf("%s %d ", magic, formatVersion)),
		[]byte(fmt.Sprintf("%s %d ", magic, formatVersion+1)), 1)
	if bytes.Equal(bumped, raw) {
		t.Fatal("test did not rewrite the version field")
	}
	os.WriteFile(s.path(key), bumped, 0o644)
	if _, ok := s.Get(key); ok {
		t.Error("future-version entry served as a hit")
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Error("stale-version entry not removed")
	}
}

func TestGarbageHeaderDetected(t *testing.T) {
	s := open(t)
	key, _ := Key("test/v1", 4)
	for _, junk := range []string{"", "not a header", "fx8store one two\npayload"} {
		os.WriteFile(s.path(key), []byte(junk), 0o644)
		if _, ok := s.Get(key); ok {
			t.Errorf("garbage entry %q served as a hit", junk)
		}
	}
}

// TestConcurrentReadersAndWriters hammers one key with concurrent
// Gets and Puts: every successful read must observe a complete,
// self-consistent entry (atomic rename), never a torn one.
func TestConcurrentReadersAndWriters(t *testing.T) {
	s := open(t)
	key, _ := Key("test/v1", 5)
	payload := bytes.Repeat([]byte("deterministic"), 1024)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.Put(key, payload); err != nil {
					t.Errorf("concurrent Put: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, ok := s.Get(key)
				if !ok {
					t.Error("reader missed while entry existed")
					return
				}
				if !bytes.Equal(got, payload) {
					t.Error("reader observed a torn entry")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Errorf("Corrupt = %d under concurrent access", st.Corrupt)
	}
}

// TestPurgeRacesInFlightWrites pins the re-read/remove race noted in
// removeIfUnchanged: with Purge, Put and Get racing on one key, a
// reader must only ever observe the exact stored payload or a clean
// miss — never a torn or foreign entry surfaced as a hit.  Run under
// -race in CI.
func TestPurgeRacesInFlightWrites(t *testing.T) {
	s := open(t)
	key, _ := Key("test/v1", "contended")
	payload := bytes.Repeat([]byte("stable-bytes"), 512)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Put(key, payload); err != nil {
					t.Errorf("Put during purge race: %v", err)
					return
				}
			}
		}()
	}
	// The purger is the bounded goroutine: it runs a fixed number of
	// purges against the churn, then stops everyone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 60; i++ {
			if err := s.Purge(); err != nil {
				t.Errorf("Purge during writes: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
					t.Error("Get surfaced a corrupt read as a hit during purge")
					return
				}
			}
		}()
	}

	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Errorf("Corrupt = %d; purge surfaced defective entries", st.Corrupt)
	}
}

func TestSizeBoundEvictsOldest(t *testing.T) {
	s := open(t, WithMaxBytes(400))
	payload := bytes.Repeat([]byte("x"), 100) // ~175 bytes with header
	var keys []string
	for i := 0; i < 5; i++ {
		k, _ := Key("test/v1", i)
		keys = append(keys, k)
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so "oldest" is well defined on coarse
		// filesystem clocks.
		ts := int64(1_000_000 + i*10)
		os.Chtimes(s.path(k), timeFromUnix(ts), timeFromUnix(ts))
	}
	if err := s.enforceBound(); err != nil {
		t.Fatal(err)
	}
	if _, sz := s.Disk(); sz > 400 {
		t.Errorf("disk bytes = %d after eviction, want <= 400", sz)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Error("oldest entry survived the size bound")
	}
	if _, ok := s.Get(keys[4]); !ok {
		t.Error("newest entry evicted")
	}
}

func TestPurgeRemovesOnlyEntries(t *testing.T) {
	s := open(t)
	for i := 0; i < 3; i++ {
		k, _ := Key("test/v1", i)
		if err := s.Put(k, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	bystander := filepath.Join(s.Dir(), "README.txt")
	os.WriteFile(bystander, []byte("not an entry"), 0o644)
	one, _ := Key("test/v1", 0)
	info, err := os.Stat(s.path(one))
	if err != nil {
		t.Fatal(err)
	}
	if n, b := s.Disk(); n != 3 || b != 3*info.Size() {
		t.Errorf("Disk before Purge = %d entries, %d bytes; want 3 entries, %d bytes (the bystander not counted)", n, b, 3*info.Size())
	}
	if err := s.Purge(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Disk(); n != 0 {
		t.Errorf("entries after Purge = %d", n)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Error("Purge removed a non-entry file")
	}
}

func TestOpenRejectsUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	os.Chmod(dir, 0o555)
	defer os.Chmod(dir, 0o755)
	if _, err := Open(filepath.Join(dir, "sub", "cache")); err == nil {
		t.Error("Open of uncreatable directory succeeded")
	}
}

func TestJSONHelpers(t *testing.T) {
	s := open(t)
	type point struct{ X, Y float64 }
	key, _ := Key("points/v1", "k")
	var out []point
	if GetJSON(s, key, &out) {
		t.Error("GetJSON hit before Put")
	}
	in := []point{{1, 2}, {3.5, -0.25}}
	if err := PutJSON(s, key, in); err != nil {
		t.Fatal(err)
	}
	if !GetJSON(s, key, &out) {
		t.Fatal("GetJSON missed after PutJSON")
	}
	if len(out) != 2 || out[1] != in[1] {
		t.Errorf("round trip = %+v", out)
	}
	// Undecodable payload counts as corrupt and is removed.
	if err := s.Put(key, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if GetJSON(s, key, &out) {
		t.Error("GetJSON decoded garbage")
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Error("undecodable entry not removed")
	}
	// Nil store: optional cache threading.
	if GetJSON[int](nil, key, new(int)) {
		t.Error("nil store hit")
	}
	if err := PutJSON(nil, key, 1); err != nil {
		t.Error("nil store Put errored")
	}
}

// TestGetOrComputeJSON pins the shared get-or-compute shape: compute
// exactly once, then serve from disk; compute errors propagate
// without writing; a nil store always computes.
func TestGetOrComputeJSON(t *testing.T) {
	s := open(t)
	computes := 0
	compute := func() (int, error) { computes++; return 42, nil }

	got, err := GetOrComputeJSON(s, "answer/v1", "q", compute)
	if err != nil || got != 42 {
		t.Fatalf("first call = %d, %v", got, err)
	}
	got, err = GetOrComputeJSON(s, "answer/v1", "q", compute)
	if err != nil || got != 42 {
		t.Fatalf("second call = %d, %v", got, err)
	}
	if computes != 1 {
		t.Errorf("computed %d times, want once then disk", computes)
	}
	// A different namespace or config is a different artefact.
	if _, err := GetOrComputeJSON(s, "answer/v2", "q", compute); err != nil {
		t.Fatal(err)
	}
	if computes != 2 {
		t.Errorf("namespace change did not recompute (computes = %d)", computes)
	}

	boom := errors.New("compute failed")
	if _, err := GetOrComputeJSON(s, "err/v1", "q", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("compute error = %v, want propagated", err)
	}
	if k, _ := Key("err/v1", "q"); s.Has(k) {
		t.Error("failed compute wrote an entry")
	}

	nilComputes := 0
	for i := 0; i < 2; i++ {
		if v, err := GetOrComputeJSON(nil, "n/v1", "q", func() (int, error) { nilComputes++; return 7, nil }); err != nil || v != 7 {
			t.Fatalf("nil store call = %d, %v", v, err)
		}
	}
	if nilComputes != 2 {
		t.Errorf("nil store computed %d times, want every call", nilComputes)
	}
}
