package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/trace"
)

// studyNamespace versions the stored encoding of a Study.  Bump it
// whenever the Study schema changes incompatibly: old entries then
// miss cleanly and are recomputed.
const studyNamespace = "study/v1"

// EncodeStudy serializes a completed campaign for the on-disk store.
// The encoding is canonical — a given Study always encodes to the
// same bytes — so identical configurations produce identical entries
// regardless of which process computed them.
func EncodeStudy(st *Study) ([]byte, error) {
	data, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("core: encoding study: %w", err)
	}
	return data, nil
}

// DecodeStudy deserializes a stored campaign.  It accepts exactly the
// documents json.Unmarshal accepts into a Study and restores the same
// Study.
//
// The triggered sessions' raw buffers are most of a stored campaign's
// bytes, so DecodeStudy parses them itself.  One pass over the
// document (splitStudy) cuts out the Buffers value of each HighConc
// and Transition session, decodes it with trace.ReadBuffers and writes
// null in its place; only the remaining skeleton goes to encoding/json,
// and the buffers are then attached to the sessions it decoded.  A
// value the pass does not recognise — a malformed buffer, or any value
// of a document it cannot walk or that names a session array twice —
// stays in the skeleton for encoding/json to decode or reject.
func DecodeStudy(data []byte) (*Study, error) {
	skeleton, found := splitStudy(data)
	st := new(Study)
	if err := json.Unmarshal(skeleton, st); err != nil {
		return nil, fmt.Errorf("core: decoding study: %w", err)
	}
	for f, sessions := range [...][]*TriggeredSession{st.HighConc, st.Transition} {
		for _, sb := range found[f] {
			if sb.index >= len(sessions) || sessions[sb.index] == nil {
				return nil, fmt.Errorf("core: decoding study: buffers of missing session %d", sb.index)
			}
			sessions[sb.index].Buffers = sb.bufs
		}
	}
	return st, nil
}

// StudyKey returns the content address of a campaign configuration in
// the store.
func StudyKey(cfg StudyConfig) (string, error) {
	return store.Key(studyNamespace, cfg)
}

// CacheStats snapshots a StudyCache's outcome counters.  MemoryHits
// counts Gets served from the in-process memo, including concurrent
// Gets that waited on an in-flight computation; DiskHits counts
// campaigns restored from the store; Computes counts campaigns
// actually run.
type CacheStats struct {
	MemoryHits  uint64
	DiskHits    uint64
	Computes    uint64
	StoreErrors uint64
}

// DefaultMemoEntries caps the in-process campaign memo.  Completed
// studies are large (every session's samples and raw trigger
// buffers), and a process legitimately works with only a handful of
// configurations — the quick and paper scales plus a few variants —
// so a small FIFO bound keeps the memo from growing without bound in
// a long-lived daemon while never evicting in normal use.
const DefaultMemoEntries = 8

// StudyCache is the two-tier campaign cache: an in-process memo in
// front of an optional on-disk store, in front of the compute path
// (memory -> disk -> compute).  Concurrent Gets for the same
// configuration singleflight — exactly one goroutine probes the disk
// and, on a miss, runs the campaign; the rest block and share its
// result.  The zero value is ready to use as a memory-only cache.
type StudyCache struct {
	memo    engine.Memo[StudyConfig, *Study]
	store   atomic.Pointer[store.Store]
	gets    atomic.Uint64
	disk    atomic.Uint64
	compute atomic.Uint64
	errors  atomic.Uint64
}

// DefaultStudyCache is the process-wide campaign cache used by
// CachedStudy and the cmd tools.  Its memo is bounded by
// DefaultMemoEntries.
var DefaultStudyCache = NewStudyCache()

// NewStudyCache returns a memory-only StudyCache with the default
// memo bound; attach a disk tier with SetStore.
func NewStudyCache() *StudyCache {
	c := &StudyCache{}
	c.memo.MaxEntries = DefaultMemoEntries
	return c
}

// SetStore attaches (or, with nil, detaches) the disk tier.  Attach
// before serving Gets: configurations already memoized in memory are
// not retroactively written to the store.
func (c *StudyCache) SetStore(s *store.Store) { c.store.Store(s) }

// Store returns the attached disk tier, or nil.
func (c *StudyCache) Store() *store.Store { return c.store.Load() }

// Stats returns a snapshot of the cache's outcome counters.
func (c *StudyCache) Stats() CacheStats {
	// Load gets last: every disk/compute increment is preceded by a
	// gets increment, so this ordering guarantees gets >= disk +
	// compute even while Gets are in flight (the subtraction cannot
	// underflow).
	disk, compute := c.disk.Load(), c.compute.Load()
	gets := c.gets.Load()
	memory := uint64(0)
	if gets > disk+compute {
		memory = gets - disk - compute
	}
	return CacheStats{
		MemoryHits:  memory,
		DiskHits:    disk,
		Computes:    compute,
		StoreErrors: c.errors.Load(),
	}
}

// Get returns the campaign for cfg through the tiers: the in-process
// memo, then the store, then a local campaign run with the given
// worker count.  Computed campaigns are written back to the store
// atomically; store defects (corrupt or version-mismatched entries)
// read as misses and are recomputed, and write failures are counted
// in Stats but never fail the Get — the computed Study is always
// returned.  The result is shared and must be treated as read-only.
func (c *StudyCache) Get(cfg StudyConfig, workers int) *Study {
	c.gets.Add(1)
	return c.memo.Get(cfg, func() *Study {
		if st, ok := c.load(cfg); ok {
			c.disk.Add(1)
			return st
		}
		c.compute.Add(1)
		st, err := RunStudyRunner(context.Background(), cfg, workers, LocalStudyRunner(), nil)
		if err != nil {
			// Unreachable: the local runner executes units produced
			// by cfg.Units(), every one of which carries a spec.
			panic(fmt.Sprintf("core: campaign run failed: %v", err))
		}
		c.save(cfg, st)
		return st
	})
}

// Purge drops the in-process memo and, when a store is attached,
// removes its entries — the shared purge hook behind the CLI and the
// daemon's /v1/purge.
func (c *StudyCache) Purge() error {
	c.memo.Purge()
	if s := c.store.Load(); s != nil {
		return s.Purge()
	}
	return nil
}

// load probes the disk tier.
func (c *StudyCache) load(cfg StudyConfig) (*Study, bool) {
	s := c.store.Load()
	if s == nil {
		return nil, false
	}
	key, err := StudyKey(cfg)
	if err != nil {
		c.errors.Add(1)
		return nil, false
	}
	data, ok := s.Get(key)
	if !ok {
		return nil, false
	}
	st, err := DecodeStudy(data)
	if err != nil {
		// The entry passed its checksum but no longer decodes — a
		// schema drift the namespace version should have caught.
		// Treat as a miss and recompute.
		c.errors.Add(1)
		return nil, false
	}
	return st, true
}

// save writes a computed campaign back to the disk tier.
func (c *StudyCache) save(cfg StudyConfig, st *Study) {
	s := c.store.Load()
	if s == nil {
		return
	}
	key, err := StudyKey(cfg)
	if err != nil {
		c.errors.Add(1)
		return
	}
	data, err := EncodeStudy(st)
	if err != nil {
		c.errors.Add(1)
		return
	}
	if err := s.Put(key, data); err != nil {
		c.errors.Add(1)
	}
}

// EnsureStored writes cfg's campaign to the disk tier if a store is
// attached and the entry is absent — the write-through path for a
// campaign memoized before the store was attached.
func (c *StudyCache) EnsureStored(cfg StudyConfig, st *Study) {
	s := c.store.Load()
	if s == nil {
		return
	}
	key, err := StudyKey(cfg)
	if err != nil {
		c.errors.Add(1)
		return
	}
	if !s.Has(key) {
		c.save(cfg, st)
	}
}

// StudyAt returns the campaign for cfg using the two-tier cache
// rooted at cacheDir — the cmd tools' -cache flag.  An empty dir uses
// the process-wide memory-only DefaultStudyCache; otherwise the store
// is opened (created if needed) and attached to DefaultStudyCache, so
// every artefact generated by the process shares both tiers, and the
// campaign is guaranteed on disk when StudyAt returns.
func StudyAt(cacheDir string, cfg StudyConfig, workers int) (*Study, error) {
	if cacheDir != "" {
		if s := DefaultStudyCache.Store(); s == nil || s.Dir() != cacheDir {
			s, err := store.Open(cacheDir)
			if err != nil {
				return nil, err
			}
			DefaultStudyCache.SetStore(s)
		}
	}
	st := DefaultStudyCache.Get(cfg, workers)
	if cacheDir != "" {
		DefaultStudyCache.EnsureStored(cfg, st)
	}
	return st, nil
}

// The fields splitStudy looks for, by the keys that name them.
const (
	fieldHighConc   = iota // Study.HighConc
	fieldTransition        // Study.Transition
	fieldBuffers           // TriggeredSession.Buffers
	fieldOther
)

// sessionBuffers are the buffers decoded for the session at index of
// its field's array.
type sessionBuffers struct {
	index int
	bufs  []trace.Buffer
}

// bufferCut is a Buffers value cut out of the document: bytes
// [start, end).
type bufferCut struct {
	start, end int
}

// studySplitter walks a stored Study's JSON for splitStudy.  Its walk
// finds the same value boundaries encoding/json does on any valid
// document; on an invalid one it may stop early, which cuts nothing.
type studySplitter struct {
	data  []byte
	cuts  []bufferCut
	found [2][]sessionBuffers
	named [2]int // top-level keys naming HighConc and Transition
}

// splitStudy cuts the triggered sessions' Buffers values out of a
// stored Study.  It returns the document with null written over every
// cut value, and the decoded buffers of each HighConc and Transition
// session whose last Buffers key was cut.
//
// The skeleton decodes through encoding/json as the document does but
// for the cut values.  Each cut value is valid JSON that decodes
// without error, so the skeleton is accepted exactly when the document
// is, and null leaves the field nil for the attached buffers to
// replace.  Keys match fields as encoding/json matches them, and the
// last Buffers key of a session wins.  A document that names HighConc
// or Transition twice is left whole: encoding/json merges the two
// arrays element by element, so an index no longer identifies a
// session.
func splitStudy(data []byte) ([]byte, [2][]sessionBuffers) {
	s := studySplitter{data: data}
	i := space(data, 0)
	if i == len(data) || data[i] != '{' {
		return data, s.found
	}
	if _, ok := s.walk(i, s.studyMember); !ok || s.named[fieldHighConc] > 1 || s.named[fieldTransition] > 1 {
		return data, [2][]sessionBuffers{}
	}
	size := len(data)
	for _, c := range s.cuts {
		size -= c.end - c.start - len("null")
	}
	skeleton := make([]byte, 0, size)
	prev := 0
	for _, c := range s.cuts {
		skeleton = append(append(skeleton, data[prev:c.start]...), "null"...)
		prev = c.end
	}
	return append(skeleton, data[prev:]...), s.found
}

// studyMember walks one member of the Study object: the sessions of
// HighConc and Transition, and past anything else.
func (s *studySplitter) studyMember(key []byte, _, v int) (int, bool) {
	f := keyField(key)
	if f != fieldHighConc && f != fieldTransition {
		return s.skip(v)
	}
	s.named[f]++
	if v == len(s.data) || s.data[v] != '[' {
		return s.skip(v)
	}
	return s.walk(v, func(_ []byte, n, e int) (int, bool) {
		if e == len(s.data) || s.data[e] != '{' {
			return s.skip(e)
		}
		return s.session(f, n, e)
	})
}

// session walks the session object at data[i], element n of field f's
// array, cutting out each Buffers value the buffer grammar accepts.
func (s *studySplitter) session(f, n, i int) (int, bool) {
	var last []trace.Buffer
	cut := false
	end, ok := s.walk(i, func(key []byte, _, v int) (int, bool) {
		if keyField(key) != fieldBuffers {
			return s.skip(v)
		}
		bufs, m, err := trace.ReadBuffers(s.data[v:])
		if err != nil {
			// encoding/json rejects this value too, and with it
			// the document.
			return s.skip(v)
		}
		s.cuts = append(s.cuts, bufferCut{start: v, end: v + m})
		last, cut = bufs, true
		return v + m, true
	})
	if ok && cut {
		s.found[f] = append(s.found[f], sessionBuffers{index: n, bufs: last})
	}
	return end, ok
}

// walk walks the object or array at data[i], calling elem with each
// element's raw key (quotes included; nil in an array), its index and
// the offset of its value; elem returns the offset just past the
// value.  walk returns the offset just past the object or array.
func (s *studySplitter) walk(i int, elem func(key []byte, n, v int) (int, bool)) (int, bool) {
	d := s.data
	end := byte(']')
	if d[i] == '{' {
		end = '}'
	}
	if i = space(d, i+1); i < len(d) && d[i] == end {
		return i + 1, true
	}
	for n := 0; ; n++ {
		var key []byte
		if end == '}' {
			if i == len(d) || d[i] != '"' {
				return 0, false
			}
			k, ok := s.str(i)
			if !ok {
				return 0, false
			}
			key = d[i:k]
			if i = space(d, k); i == len(d) || d[i] != ':' {
				return 0, false
			}
			i = space(d, i+1)
		}
		var ok bool
		if i, ok = elem(key, n, i); !ok {
			return 0, false
		}
		if i = space(d, i); i == len(d) {
			return 0, false
		}
		switch d[i] {
		case ',':
			i = space(d, i+1)
		case end:
			return i + 1, true
		default:
			return 0, false
		}
	}
}

// skip returns the offset just past the value at data[i].
func (s *studySplitter) skip(i int) (int, bool) {
	d := s.data
	if i == len(d) {
		return 0, false
	}
	switch d[i] {
	case '"':
		return s.str(i)
	case '{', '[':
		for depth := 0; i < len(d); i++ {
			switch d[i] {
			case '"':
				end, ok := s.str(i)
				if !ok {
					return 0, false
				}
				i = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, true
				}
			}
		}
		return 0, false
	}
	// A number or literal runs to the next delimiter.
	n := bytes.IndexAny(d[i:], ",}] \t\n\r")
	if n < 0 {
		n = len(d) - i
	}
	return i + n, n > 0
}

// str returns the offset just past the string that starts at data[i].
func (s *studySplitter) str(i int) (int, bool) {
	d := s.data
	for i++; i < len(d); i++ {
		switch d[i] {
		case '\\':
			i++
		case '"':
			return i + 1, true
		}
	}
	return 0, false
}

// keyField reports which of splitStudy's fields a raw object key
// (quotes included) names.  encoding/json itself decides, so a key
// matches exactly as it would in a Study: after unescaping, and
// case-insensitively.  splitStudy asks only about the few keys of the
// Study object and of its triggered sessions.
func keyField(key []byte) int {
	var probe struct{ HighConc, Transition, Buffers json.RawMessage }
	if json.Unmarshal(append(append([]byte{'{'}, key...), ":0}"...), &probe) != nil {
		return fieldOther
	}
	switch {
	case probe.HighConc != nil:
		return fieldHighConc
	case probe.Transition != nil:
		return fieldTransition
	case probe.Buffers != nil:
		return fieldBuffers
	}
	return fieldOther
}

// space returns the offset of the first byte of data at or after i
// that is not JSON whitespace.
func space(data []byte, i int) int {
	return len(data) - len(bytes.TrimLeft(data[i:], " \t\n\r"))
}
