package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrTruncated reports a trace file that ends mid-stream.  Errors from
// Read wrap it, so callers can distinguish a cut-off file (retry, rerun)
// from a corrupt one (bad magic, wrong version, implausible counts).
var ErrTruncated = errors.New("trace: truncated event stream")

// Binary trace format (all integers varint-encoded unless noted):
//
//	magic "LTRC" (4 bytes), version uvarint
//	clock name: uvarint length + bytes
//	region count, then per region: name (len+bytes), role (1 byte)
//	location count, then per location:
//	    rank, thread, event count,
//	    events with delta-encoded timestamps:
//	        kind (1 byte), time delta, region, A (zigzag), B (zigzag),
//	        C (zigzag)
//
// Version 2 is the chunked, compressed, seekable format documented in
// chunk.go; Read dispatches on the version field and handles both.
const (
	magic         = "LTRC"
	formatVersion = 1
)

// Write serialises the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putI := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putS := func(s string) error {
		if err := putU(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := putU(formatVersion); err != nil {
		return err
	}
	if err := putS(t.Clock); err != nil {
		return err
	}
	if err := putU(uint64(len(t.Regions))); err != nil {
		return err
	}
	for _, r := range t.Regions {
		if err := putS(r.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(r.Role)); err != nil {
			return err
		}
	}
	if err := putU(uint64(len(t.Locs))); err != nil {
		return err
	}
	for _, l := range t.Locs {
		if err := putU(uint64(l.Rank)); err != nil {
			return err
		}
		if err := putU(uint64(l.Thread)); err != nil {
			return err
		}
		if err := putU(uint64(len(l.Events))); err != nil {
			return err
		}
		prev := uint64(0)
		for _, e := range l.Events {
			if err := bw.WriteByte(byte(e.Kind)); err != nil {
				return err
			}
			if err := putU(e.Time - prev); err != nil {
				return err
			}
			prev = e.Time
			if err := putU(uint64(e.Region)); err != nil {
				return err
			}
			if err := putI(int64(e.A)); err != nil {
				return err
			}
			if err := putI(int64(e.B)); err != nil {
				return err
			}
			if err := putI(e.C); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Sanity caps for count fields: a corrupted varint must fail with a
// clear error instead of a multi-gigabyte allocation.
const (
	maxStringLen = 1 << 20
	maxRegions   = 1 << 20
	maxLocations = 1 << 24
)

// fail attaches the section being decoded to a low-level read error and
// maps end-of-input onto ErrTruncated, so every failure names where in
// the stream the file gave out.
func fail(section string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w while reading %s", ErrTruncated, section)
	}
	return fmt.Errorf("trace: reading %s: %w", section, err)
}

// internRegion is (*Trace).Region for decode paths: a duplicate region
// name with a conflicting role is corrupt input and must surface as an
// error, not as Region's programmer-error panic.
func (t *Trace) internRegion(name string, role Role) error {
	if id, ok := t.regionIDs[name]; ok && t.Regions[id].Role != role {
		return fmt.Errorf("trace: region %q defined twice with conflicting roles %v and %v",
			name, t.Regions[id].Role, role)
	}
	t.Region(name, role)
	return nil
}

// RecordError pinpoints the event record being decoded when a trace
// read fails mid-stream: the location index, its rank and thread, and
// the zero-based event index within the location.  It wraps the
// underlying failure, so errors.Is(err, ErrTruncated) still detects a
// cut-off file, and analyses like ltlint can report the exact offending
// record of a partially corrupted trace.
type RecordError struct {
	// Path is the trace file being read, when known.  Read leaves it
	// empty (an io.Reader has no name); ReadFile fills it in, so batch
	// tools reading many traces report which file held the bad record.
	Path   string
	Loc    int // index into Trace.Locs
	Rank   int
	Thread int
	Event  int // zero-based event index within the location
	Events int // event count the location header declared
	// Chunk is the one-based chunk ordinal within the location for
	// chunked (version-2) traces, or 0 for the monolithic version-1
	// stream, where events are not chunked.
	Chunk int
	// Offset is the file offset of the offending record's tag byte, when
	// the reader tracks offsets (the live tail does); 0 means unknown.
	Offset int64
	Err    error
}

func (e *RecordError) Error() string {
	at := fmt.Sprintf("location %d (rank %d thread %d)", e.Loc, e.Rank, e.Thread)
	if e.Chunk > 0 {
		at += fmt.Sprintf(" chunk %d", e.Chunk)
	}
	if e.Offset > 0 {
		at += fmt.Sprintf(" offset %d", e.Offset)
	}
	if e.Path != "" {
		return fmt.Sprintf("%s: %s: %v", e.Path, at, e.Err)
	}
	return fmt.Sprintf("%s: %v", at, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// ReadFile reads a trace from a file.  It is Read plus provenance:
// any *RecordError coming out of the decode carries the file path, and
// other failures are wrapped with it, so multi-file tools (ltlint,
// ltviz) name the offending file without extra bookkeeping.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		var re *RecordError
		if errors.As(err, &re) {
			re.Path = path
			return nil, err
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Read deserialises a trace written by Write.  It fails with a precise
// diagnostic — bad magic, unsupported version, implausible count, or an
// ErrTruncated-wrapped error naming the section where the stream ended —
// and never panics or over-allocates on corrupt input.  Failures inside
// an event stream are additionally wrapped in a *RecordError carrying
// the location's rank/thread and the event index.
func Read(r io.Reader) (*Trace, error) {
	return read(r, nil)
}

// ReadBytes is Read over an in-memory trace image.  For a chunked
// trace it first consults the trailing index (CRC-checked) to size each
// location's event slice up front, then runs Read's strict sequential
// decode, which stays authoritative: every chunk CRC and every count is
// still checked, and an index that disagrees with the records only
// costs a reallocation.
func ReadBytes(b []byte) (*Trace, error) {
	return read(bytes.NewReader(b), presizeHint(b))
}

// read is Read with optional per-location event capacities for a
// chunked trace (see presizeHint).
func read(r io.Reader, hint []int) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fail("magic", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q (not an LTRC trace)", head)
	}
	getU := func(section string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fail(section, err)
		}
		return v, nil
	}
	getI := func(section string) (int64, error) {
		v, err := binary.ReadVarint(br)
		if err != nil {
			return 0, fail(section, err)
		}
		return v, nil
	}
	getS := func(section string) (string, error) {
		n, err := getU(section + " length")
		if err != nil {
			return "", err
		}
		if n > maxStringLen {
			return "", fmt.Errorf("trace: implausible %s length %d", section, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", fail(section, err)
		}
		return string(b), nil
	}
	ver, err := getU("version")
	if err != nil {
		return nil, err
	}
	if ver == chunkFormatVersion {
		return readChunkedSeq(br, hint)
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (this reader handles versions %d-%d)",
			ver, formatVersion, chunkFormatVersion)
	}
	clock, err := getS("clock name")
	if err != nil {
		return nil, err
	}
	t := New(clock)
	nreg, err := getU("region count")
	if err != nil {
		return nil, err
	}
	if nreg > maxRegions {
		return nil, fmt.Errorf("trace: implausible region count %d", nreg)
	}
	for i := uint64(0); i < nreg; i++ {
		section := fmt.Sprintf("region %d/%d", i+1, nreg)
		name, err := getS(section + " name")
		if err != nil {
			return nil, err
		}
		role, err := br.ReadByte()
		if err != nil {
			return nil, fail(section+" role", err)
		}
		if err := t.internRegion(name, Role(role)); err != nil {
			return nil, err
		}
	}
	nloc, err := getU("location count")
	if err != nil {
		return nil, err
	}
	if nloc > maxLocations {
		return nil, fmt.Errorf("trace: implausible location count %d", nloc)
	}
	presizeLeft := uint64(1 << 16)
	for i := uint64(0); i < nloc; i++ {
		section := fmt.Sprintf("location %d/%d header", i+1, nloc)
		rank, err := getU(section)
		if err != nil {
			return nil, err
		}
		thread, err := getU(section)
		if err != nil {
			return nil, err
		}
		nev, err := getU(section)
		if err != nil {
			return nil, err
		}
		li := t.AddLocation(int(rank), int(thread))
		// Grow-as-you-go above a modest floor shared by all locations:
		// the event counts in corrupt headers must not size the
		// allocation.
		capHint := min(nev, presizeLeft)
		presizeLeft -= capHint
		t.Locs[li].Events = make([]Event, 0, capHint)
		prev := uint64(0)
		for j := uint64(0); j < nev; j++ {
			section := fmt.Sprintf("event %d/%d of location %d/%d", j+1, nev, i+1, nloc)
			ev, err := func() (Event, error) {
				kind, err := br.ReadByte()
				if err != nil {
					return Event{}, fail(section, err)
				}
				dt, err := getU(section)
				if err != nil {
					return Event{}, err
				}
				prev += dt
				reg, err := getU(section)
				if err != nil {
					return Event{}, err
				}
				a, err := getI(section)
				if err != nil {
					return Event{}, err
				}
				b, err := getI(section)
				if err != nil {
					return Event{}, err
				}
				c, err := getI(section)
				if err != nil {
					return Event{}, err
				}
				return Event{
					Kind: EvKind(kind), Time: prev, Region: RegionID(reg),
					A: int32(a), B: int32(b), C: c,
				}, nil
			}()
			if err != nil {
				return nil, &RecordError{
					Loc: li, Rank: int(rank), Thread: int(thread),
					Event: int(j), Events: int(nev), Err: err,
				}
			}
			t.Locs[li].Events = append(t.Locs[li].Events, ev)
		}
	}
	return t, nil
}
