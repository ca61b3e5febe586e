// Package store is a content-addressed, on-disk artefact store for
// campaign results.  The study's measurement campaigns are expensive
// and deterministic: a result is a pure function of its canonically
// encoded configuration, so the store keys every entry by a stable
// hash of that configuration and treats the disk as a second cache
// tier shared by every process pointed at the same directory — the
// CLI tools and the fx8d daemon.
//
// Entries are written atomically (temp file + rename into place), so
// readers never observe a half-written entry under normal operation.
// Each entry carries a versioned header with a payload checksum and
// length; truncated, corrupted or format-incompatible entries are
// detected on read, removed, and reported as misses so callers simply
// recompute.  An optional size bound evicts the oldest entries.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// formatVersion is the on-disk entry format version.  Bumping it
// invalidates every existing entry cleanly: old entries read as
// misses and are removed.
const formatVersion = 1

// magic is the first header field of every entry.
const magic = "fx8store"

// entryExt is the filename extension of store entries; everything
// else in the directory is left alone.
const entryExt = ".fx8s"

// Key returns the content address of a configuration: the hex SHA-256
// of the namespace and the canonical JSON encoding of v.  Namespaces
// keep differently-typed artefacts with coincidentally identical
// encodings apart ("study/v1", "sweep/v1", ...) and version the
// logical schema: changing what a namespace's payload means requires
// a new namespace, which misses cleanly against old entries.
func Key(namespace string, v any) (string, error) {
	enc, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("store: encoding key config: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(namespace))
	h.Write([]byte{0})
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Stats counts store outcomes since Open.
type Stats struct {
	Hits    uint64 // entries served intact
	Misses  uint64 // absent entries
	Corrupt uint64 // entries rejected (truncated, bad checksum, old version)
	Writes  uint64 // entries written
	Evicted uint64 // entries removed by the size bound
}

// Store is an on-disk entry store rooted at one directory.  All
// methods are safe for concurrent use by multiple goroutines; cross-
// process safety relies on atomic rename, so two processes computing
// the same key concurrently both succeed and one entry survives.
type Store struct {
	dir      string
	maxBytes int64
	fs       FS

	mu sync.Mutex // serializes size-bound enforcement and Purge

	hits, misses, corrupt, writes, evicted atomic.Uint64
}

// Option configures a Store.
type Option func(*Store)

// WithMaxBytes bounds the total size of stored entries: after each
// write, the oldest entries (by modification time) are evicted until
// the store fits.  n <= 0 means unbounded (the default).
func WithMaxBytes(n int64) Option {
	return func(s *Store) { s.maxBytes = n }
}

// WithFS substitutes the filesystem every store operation goes
// through — the fault-injection seam.  nil means the real filesystem
// (the default).
func WithFS(fsys FS) Option {
	return func(s *Store) {
		if fsys != nil {
			s.fs = fsys
		}
	}
}

// Open creates (if needed) and validates the store directory,
// returning a Store rooted there.  It probes for writability so
// misconfigured cache directories fail at startup, not mid-campaign.
func Open(dir string, opts ...Option) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	s := &Store{dir: dir, fs: OS()}
	for _, o := range opts {
		o(s)
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	probe, err := s.fs.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: %s not writable: %w", dir, err)
	}
	probe.Close()
	s.fs.Remove(probe.Name())
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's outcome counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Writes:  s.writes.Load(),
		Evicted: s.evicted.Load(),
	}
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entryExt)
}

// Get returns the payload stored under key.  Any defect — a missing
// entry, a truncated or corrupted payload, an incompatible format
// version — reports ok == false, after removing the defective file so
// the next Put rewrites it; callers recompute and Put.
func (s *Store) Get(key string) (data []byte, ok bool) {
	raw, err := s.fs.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(raw)
	if err != nil {
		s.corrupt.Add(1)
		s.removeIfUnchanged(s.path(key), raw)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// removeIfUnchanged deletes a defective entry only if its content
// still matches what was read, so a valid entry a concurrent Put just
// renamed into place survives the cleanup.  (A race remains between
// the re-read and the remove, but it requires a rename inside that
// microsecond window against content that was defective moments
// before; the caller recomputes and rewrites either way.)
func (s *Store) removeIfUnchanged(path string, seen []byte) {
	cur, err := s.fs.ReadFile(path)
	if err == nil && bytes.Equal(cur, seen) {
		s.fs.Remove(path)
	}
}

// decodeEntry validates an entry's header, length and checksum and
// returns the payload.
func decodeEntry(raw []byte) ([]byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, errors.New("store: missing entry header")
	}
	fields := bytes.Fields(raw[:nl])
	if len(fields) != 4 || string(fields[0]) != magic {
		return nil, errors.New("store: malformed entry header")
	}
	version, err := strconv.Atoi(string(fields[1]))
	if err != nil || version != formatVersion {
		return nil, fmt.Errorf("store: entry format version %s, want %d", fields[1], formatVersion)
	}
	wantLen, err := strconv.Atoi(string(fields[3]))
	if err != nil {
		return nil, errors.New("store: malformed entry length")
	}
	payload := raw[nl+1:]
	if len(payload) != wantLen {
		return nil, fmt.Errorf("store: entry payload %d bytes, header says %d", len(payload), wantLen)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(fields[2]) {
		return nil, errors.New("store: entry checksum mismatch")
	}
	return payload, nil
}

// Has reports whether an entry exists under key, without reading or
// validating it — a cheap presence probe; a defective entry still
// reads as a miss on Get.
func (s *Store) Has(key string) bool {
	_, err := s.fs.Stat(s.path(key))
	return err == nil
}

// encodeEntry frames a payload in the on-disk entry format.  The
// framing is deterministic: a payload always produces the same entry
// bytes.
func encodeEntry(data []byte) []byte {
	sum := sha256.Sum256(data)
	header := fmt.Sprintf("%s %d %s %d\n", magic, formatVersion, hex.EncodeToString(sum[:]), len(data))
	return append([]byte(header), data...)
}

// Put stores data under key atomically: the entry is written to a
// temporary file in the store directory and renamed into place, so a
// concurrent Get sees either the previous entry or the complete new
// one, never a partial write.
func (s *Store) Put(key string, data []byte) error {
	tmp, err := s.fs.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: creating temp entry: %w", err)
	}
	defer s.fs.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(encodeEntry(data)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing entry: %w", err)
	}
	if err := s.fs.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("store: publishing entry: %w", err)
	}
	s.writes.Add(1)
	return s.enforceBound()
}

// Claim stores data under key only if no entry exists there,
// reporting whether this caller won.  Unlike Put's last-writer-wins
// rename, Claim publishes with a hard link, which fails when the
// target exists — so of any number of processes claiming the same key
// concurrently, exactly one succeeds.  The entry is fully written
// before it is linked into place, so a reader never observes a
// partial claim.  This is the store's mutual-exclusion primitive:
// the coordinator leases job ownership by claiming a lease key and
// Delete-ing it on release.
func (s *Store) Claim(key string, data []byte) (won bool, err error) {
	tmp, err := s.fs.CreateTemp(s.dir, ".claim-*")
	if err != nil {
		return false, fmt.Errorf("store: creating temp claim: %w", err)
	}
	defer s.fs.Remove(tmp.Name())
	if _, err := tmp.Write(encodeEntry(data)); err != nil {
		tmp.Close()
		return false, fmt.Errorf("store: writing claim: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return false, fmt.Errorf("store: closing claim: %w", err)
	}
	if err := s.fs.Link(tmp.Name(), s.path(key)); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return false, nil
		}
		return false, fmt.Errorf("store: publishing claim: %w", err)
	}
	s.writes.Add(1)
	return true, s.enforceBound()
}

// Delete removes the entry under key.  A missing entry is not an
// error; any other failure is reported.
func (s *Store) Delete(key string) error {
	if err := s.fs.Remove(s.path(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: deleting entry: %w", err)
	}
	return nil
}

// enforceBound evicts oldest-first until the store fits maxBytes.
func (s *Store) enforceBound() error {
	if s.maxBytes <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, total, err := s.scan()
	if err != nil {
		return err
	}
	for i := 0; total > s.maxBytes && i < len(entries); i++ {
		if err := s.fs.Remove(entries[i].path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: evicting %s: %w", entries[i].path, err)
		}
		total -= entries[i].size
		s.evicted.Add(1)
	}
	return nil
}

type entryInfo struct {
	path  string
	size  int64
	mtime int64
}

// scan lists the store's entries sorted oldest first and their total
// size.
func (s *Store) scan() ([]entryInfo, int64, error) {
	dirents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("store: scanning %s: %w", s.dir, err)
	}
	var entries []entryInfo
	var total int64
	for _, de := range dirents {
		if de.IsDir() || filepath.Ext(de.Name()) != entryExt {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with eviction or purge
		}
		entries = append(entries, entryInfo{
			path:  filepath.Join(s.dir, de.Name()),
			size:  info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
		total += info.Size()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime < entries[j].mtime })
	return entries, total, nil
}

// Disk reports the entry count and total bytes on disk in one
// directory scan.
func (s *Store) Disk() (entries int, bytes int64) {
	list, total, _ := s.scan()
	return len(list), total
}

// Purge removes every entry from the store.  Files that are not store
// entries are left alone.
func (s *Store) Purge() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, _, err := s.scan()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := s.fs.Remove(e.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: purging %s: %w", e.path, err)
		}
	}
	return nil
}

// GetJSON reads the entry under key and decodes it into out,
// reporting whether a valid entry was found and decoded.  A payload
// that fails to decode counts as corrupt and is removed, like any
// other defective entry.
func GetJSON[T any](s *Store, key string, out *T) bool {
	if s == nil {
		return false
	}
	data, ok := s.Get(key)
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, out); err != nil {
		// Checksum-valid but undecodable as T: a stale schema.  The
		// framing is deterministic, so guard the removal against a
		// concurrent rewrite the same way Get does.
		s.corrupt.Add(1)
		s.removeIfUnchanged(s.path(key), encodeEntry(data))
		return false
	}
	return true
}

// PutJSON encodes v and stores it under key.  A nil store is a no-op,
// so callers can thread an optional cache without branching.
func PutJSON[T any](s *Store, key string, v T) error {
	if s == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding entry: %w", err)
	}
	return s.Put(key, data)
}

// ClaimJSON encodes v and claims key with it, reporting whether this
// caller won the claim.  A nil store reports a win without persisting
// anything, so single-process callers need no branching.
func ClaimJSON[T any](s *Store, key string, v T) (bool, error) {
	if s == nil {
		return true, nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return false, fmt.Errorf("store: encoding claim: %w", err)
	}
	return s.Claim(key, data)
}

// GetOrComputeJSON returns the artefact for (namespace, cfg) through
// the store: decoded from disk on a hit, otherwise computed and
// written back — a write failure never fails the call, the computed
// value is still returned.  A nil store always computes.  This is the
// shared get-or-compute shape behind per-unit caching in the service
// and session caching in cmd/measure.
func GetOrComputeJSON[T any](s *Store, namespace string, cfg any, compute func() (T, error)) (T, error) {
	var zero T
	key, err := Key(namespace, cfg)
	if err != nil {
		return zero, err
	}
	var cached T
	if GetJSON(s, key, &cached) {
		return cached, nil
	}
	out, err := compute()
	if err != nil {
		return zero, err
	}
	PutJSON(s, key, out)
	return out, nil
}
