// Package runcache is a content-addressed on-disk cache for simulated
// run results.  A study's job grid is fully deterministic — the outcome
// of one job is a pure function of (spec identity, mode, seed, noise
// parameters, fault plan, measurement config, code version) — so results
// can be stored under a stable hash of exactly those inputs and reused
// across `ltreport`/`ltverify`/`ltscale` invocations.  Entries store the
// event trace in the chunked LTRC binary format (internal/trace) and the
// analysis profile in cube's compact binary encoding (cube.AppendBinary;
// cube JSON stays the user-facing profile format), so a cached result
// decodes deep-equal to a fresh run (asserted by tests in
// internal/experiment).
//
// The cache is safe for concurrent use by the pool's workers: writes go
// to a temporary file and are renamed into place, and two racing writers
// of the same key produce identical bytes.  Any read problem — missing
// file, truncation, corruption, format-version skew — degrades to a
// cache miss, never an error; the job is simply re-run.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/cube"
	"repro/internal/trace"
)

// Key names the complete identity of one simulated job.  Every field
// that can change the job's outcome must appear here; the composite
// fields (Spec, Noise, Faults, Config, Watchdog) are canonical string
// renderings produced by the caller.  Version is the caller's code
// version salt: bump it whenever simulation semantics change, so stale
// entries from older binaries can never be mistaken for fresh results.
type Key struct {
	Spec     string // spec identity: name, geometry, pinning, description
	Mode     string // timer mode; "" for an uninstrumented reference run
	Seed     int64  // noise / fault-jitter seed
	Noise    string // noise.Params rendering
	Faults   string // effective fault plan (seed, jitter, faults); "" if none
	Config   string // measurement config rendering; "" if uninstrumented
	Analyze  bool   // whether the trace was run through the analyzer
	Watchdog string // run budget rendering (it can truncate a result)
	Version  string // caller's code-version salt
}

// Hash returns the key's content address: a hex SHA-256 over the
// length-prefixed fields, so no concatenation of field values can
// collide with another field split.
func (k Key) Hash() string {
	h := sha256.New()
	put := func(s string) {
		var b [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(b[:], uint64(len(s)))
		h.Write(b[:n])
		io.WriteString(h, s)
	}
	put(k.Spec)
	put(k.Mode)
	put(strconv.FormatInt(k.Seed, 10))
	put(k.Noise)
	put(k.Faults)
	put(k.Config)
	put(strconv.FormatBool(k.Analyze))
	put(k.Watchdog)
	put(k.Version)
	return hex.EncodeToString(h.Sum(nil))
}

// Entry is the cached form of one run result.  It mirrors
// experiment.RunResult field for field; the experiment package converts
// between the two (runcache cannot import it without a cycle).
type Entry struct {
	Mode    string
	Wall    float64
	Phases  map[string]float64
	Checks  []float64
	FoM     float64
	Trace   *trace.Trace  // nil for reference runs
	Profile *cube.Profile // nil unless analyzed
	// Applied is the run's applied-fault log (nil without a fault plan).
	Applied []AppliedFault
}

// AppliedFault mirrors faults.AppliedFault field for field (runcache
// cannot import internal/faults for the same cycle reason as Entry).
type AppliedFault struct {
	Kind       string
	Rank, Core int
	Resource   string
	At         float64
	Magnitude  float64
}

// Cache is a content-addressed store rooted at one directory.  Entries
// live at <dir>/<hh>/<hash>.ltr, sharded by the first hash byte so a
// long sweep does not pile tens of thousands of files into one listing.
type Cache struct {
	dir          string
	hits, misses atomic.Int64
}

// Open creates (if needed) and returns the cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns the hit and miss counts since Open.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".ltr")
}

// Get looks a key up.  ok is false on a miss, including every flavour of
// unreadable entry (absent, truncated, corrupt, wrong format version).
func (c *Cache) Get(key Key) (e *Entry, ok bool) {
	b, err := os.ReadFile(c.path(key.Hash()))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	e, err = decodeEntry(b)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// Put stores an entry under the key, atomically: the bytes are written
// to a temporary file in the same directory and renamed into place, so
// a reader never observes a half-written entry and concurrent writers
// of the same key are harmless.
func (c *Cache) Put(key Key, e *Entry) error {
	path := c.path(key.Hash())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if err := encodeEntry(tmp, e); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: writing entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}

// Entry file format (integers varint-encoded, floats as little-endian
// IEEE-754 bits):
//
//	magic "LTRR" (4 bytes), version uvarint
//	mode string (uvarint length + bytes)
//	wall f64, fom f64
//	phase count, then per phase (sorted by name): name, value f64
//	check count, then per check: value f64
//	applied-fault count, then per event: kind string, rank varint,
//	  core varint, resource string, at f64, magnitude f64   (version 2+)
//	flags byte (bit 0: trace present, bit 1: profile present)
//	if trace:   uvarint byte length + LTRC stream (chunked version-2
//	  format, trace.WriteChunked; trace.Read handles both versions)
//	if profile: uvarint byte length + binary profile (cube.AppendBinary)
//
// Version history: 2 added the applied-fault log; 3 switched the trace
// blob to the chunked compressed format; 4 replaced the profile's cube
// JSON with cube's binary encoding.  Older entries decode as a miss (by
// design: a pre-log binary cannot know what fired, and the version bump
// keeps cache files self-describing across each format change).
const (
	entryMagic   = "LTRR"
	entryVersion = 4
)

// Sanity caps, mirroring internal/trace's reader hardening: a corrupted
// count must fail (→ miss) instead of allocating gigabytes.
const (
	maxPhases  = 1 << 16
	maxChecks  = 1 << 24
	maxApplied = 1 << 24
)

// encodeEntry writes e's image to w: the fixed fields, then each blob
// after its length, with no copy of either blob into a joint buffer.
func encodeEntry(out io.Writer, e *Entry) error {
	w := []byte(entryMagic)
	putU := func(v uint64) { w = binary.AppendUvarint(w, v) }
	putI := func(v int64) { w = binary.AppendVarint(w, v) }
	putS := func(s string) {
		putU(uint64(len(s)))
		w = append(w, s...)
	}
	putF := func(f float64) { w = binary.LittleEndian.AppendUint64(w, math.Float64bits(f)) }
	putU(entryVersion)
	putS(e.Mode)
	putF(e.Wall)
	putF(e.FoM)
	names := make([]string, 0, len(e.Phases))
	for name := range e.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	putU(uint64(len(names)))
	for _, name := range names {
		putS(name)
		putF(e.Phases[name])
	}
	putU(uint64(len(e.Checks)))
	for _, v := range e.Checks {
		putF(v)
	}
	putU(uint64(len(e.Applied)))
	for _, a := range e.Applied {
		putS(a.Kind)
		putI(int64(a.Rank))
		putI(int64(a.Core))
		putS(a.Resource)
		putF(a.At)
		putF(a.Magnitude)
	}
	var flags byte
	if e.Trace != nil {
		flags |= 1
	}
	if e.Profile != nil {
		flags |= 2
	}
	w = append(w, flags)
	var tb bytes.Buffer
	if e.Trace != nil {
		if err := trace.WriteChunked(&tb, e.Trace); err != nil {
			return err
		}
		w = binary.AppendUvarint(w, uint64(tb.Len()))
	}
	parts := [][]byte{w, tb.Bytes()}
	if e.Profile != nil {
		prof := e.Profile.AppendBinary(nil)
		parts = append(parts, binary.AppendUvarint(nil, uint64(len(prof))), prof)
	}
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		if _, err := out.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// entryDecoder consumes an entry image; the first failure sticks in err
// and every later read returns zero.
type entryDecoder struct {
	b   []byte
	err error
}

func (d *entryDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("runcache: "+format, args...)
	}
}

func (d *entryDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *entryDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bytes returns the next n bytes without copying.
func (d *entryDecoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("truncated: %d bytes wanted, %d left", n, len(d.b))
		return nil
	}
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

func (d *entryDecoder) str() string { return string(d.bytes(d.uvarint())) }

func (d *entryDecoder) f64() float64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// count reads an entry count, failing if it exceeds max or could not be
// encoded in the bytes left at minBytes per entry.
func (d *entryDecoder) count(what string, max uint64, minBytes int) int {
	n := d.uvarint()
	if d.err == nil && (n > max || n > uint64(len(d.b)/minBytes)) {
		d.fail("implausible %s count %d", what, n)
		return 0
	}
	return int(n)
}

// decodeEntry parses an entry image.  Sections are decoded in place
// from b; nothing is allocated beyond what b's length can describe.
func decodeEntry(b []byte) (*Entry, error) {
	if len(b) < len(entryMagic) || string(b[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("runcache: bad magic")
	}
	d := &entryDecoder{b: b[len(entryMagic):]}
	if ver := d.uvarint(); d.err == nil && ver != entryVersion {
		return nil, fmt.Errorf("runcache: unsupported entry version %d", ver)
	}
	e := &Entry{Mode: d.str(), Wall: d.f64(), FoM: d.f64()}
	nphase := d.count("phase", maxPhases, 9)
	e.Phases = make(map[string]float64, nphase)
	for i := 0; i < nphase && d.err == nil; i++ {
		name := d.str()
		e.Phases[name] = d.f64()
	}
	ncheck := d.count("check", maxChecks, 8)
	e.Checks = make([]float64, ncheck)
	for i := range e.Checks {
		e.Checks[i] = d.f64()
	}
	if napplied := d.count("applied-fault", maxApplied, 20); napplied > 0 {
		e.Applied = make([]AppliedFault, napplied)
		for i := range e.Applied {
			a := &e.Applied[i]
			a.Kind = d.str()
			a.Rank = int(d.varint())
			a.Core = int(d.varint())
			a.Resource = d.str()
			a.At = d.f64()
			a.Magnitude = d.f64()
		}
	}
	var flags byte
	if fb := d.bytes(1); fb != nil {
		flags = fb[0]
	}
	var tb, pb []byte
	if flags&1 != 0 {
		tb = d.bytes(d.uvarint())
	}
	if flags&2 != 0 {
		pb = d.bytes(d.uvarint())
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("runcache: %d trailing bytes", len(d.b))
	}
	var err error
	if flags&1 != 0 {
		if e.Trace, err = trace.ReadBytes(tb); err != nil {
			return nil, err
		}
	}
	if flags&2 != 0 {
		if e.Profile, err = cube.ReadBinary(pb); err != nil {
			return nil, err
		}
	}
	return e, nil
}
