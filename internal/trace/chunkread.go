package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrBadChunk reports a chunk whose payload failed its CRC or decoded
// inconsistently with its header.  Errors from chunk readers wrap it
// (inside a *RecordError carrying the location and chunk ordinal), so
// callers can distinguish payload corruption from plain truncation.
var ErrBadChunk = errors.New("trace: chunk payload corrupt")

// posReader is a sequential reader that tracks its absolute offset, so
// the chunk scanner can record where each chunk record starts.  br is a
// *bufio.Reader over a file section, or a *bytes.Reader over an image.
type posReader struct {
	br  byteReader
	off int64
}

type byteReader interface {
	io.Reader
	io.ByteReader
}

func (p *posReader) ReadByte() (byte, error) {
	b, err := p.br.ReadByte()
	if err == nil {
		p.off++
	}
	return b, err
}

func (p *posReader) Read(b []byte) (int, error) {
	n, err := p.br.Read(b)
	p.off += int64(n)
	return n, err
}

func (p *posReader) full(b []byte) error {
	n, err := io.ReadFull(p.br, b)
	p.off += int64(n)
	return err
}

// discard advances p past n bytes.  An image reader seeks over them,
// so the caller checks that they are there; any other reader reads
// them.
func (p *posReader) discard(n int) error {
	var err error
	if s, ok := p.br.(io.Seeker); ok {
		_, err = s.Seek(int64(n), io.SeekCurrent)
	} else {
		var k int64
		k, err = io.CopyN(io.Discard, p.br, int64(n))
		n = int(k)
	}
	p.off += int64(n)
	return err
}

func (p *posReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(p)
	return v, err
}

func (p *posReader) str(maxLen uint64) (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	b := make([]byte, n)
	if err := p.full(b); err != nil {
		return "", err
	}
	return string(b), nil
}

// chunkHeader is the decoded fixed part of a chunk record.
type chunkHeader struct {
	info ChunkInfo
	crc  uint32
}

// readChunkHeader parses a chunk record's header (the tag byte has
// already been consumed; its offset is tagOff).
func readChunkHeader(p *posReader, tagOff int64) (chunkHeader, error) {
	var h chunkHeader
	h.info.Offset = tagOff
	loc, err := p.uvarint()
	if err != nil {
		return h, err
	}
	nev, err := p.uvarint()
	if err != nil {
		return h, err
	}
	first, err := p.uvarint()
	if err != nil {
		return h, err
	}
	last, err := p.uvarint()
	if err != nil {
		return h, err
	}
	rawLen, err := p.uvarint()
	if err != nil {
		return h, err
	}
	compLen, err := p.uvarint()
	if err != nil {
		return h, err
	}
	if loc > maxLocations || rawLen > maxChunkBytes || compLen > maxChunkBytes || nev > rawLen+1 {
		return h, fmt.Errorf("trace: implausible chunk header (loc %d, %d events, %d raw bytes, %d compressed)",
			loc, nev, rawLen, compLen)
	}
	var crcb [4]byte
	if err := p.full(crcb[:]); err != nil {
		return h, err
	}
	h.info.Loc = int(loc)
	h.info.Events = int(nev)
	h.info.FirstTime = first
	h.info.LastTime = last
	h.info.RawLen = int(rawLen)
	h.info.CompLen = int(compLen)
	h.crc = binary.LittleEndian.Uint32(crcb[:])
	return h, nil
}

// chunkDecoder decompresses and decodes chunk payloads, reusing its
// buffers and flate state across chunks so steady-state decoding does
// not allocate.
type chunkDecoder struct {
	raw []byte
	fr  io.ReadCloser
	src bytes.Reader
}

// chunkDecoders recycles decoders — flate state and buffers — across
// reads and workers, the steady state of replaying a cache.
var chunkDecoders = sync.Pool{New: func() any { return new(chunkDecoder) }}

// decode verifies the CRC of the compressed payload comp, inflates it
// and appends the decoded events to dst.
func (d *chunkDecoder) decode(h chunkHeader, comp []byte, dst []Event) ([]Event, error) {
	if crc32.ChecksumIEEE(comp) != h.crc {
		return dst, fmt.Errorf("%w: CRC mismatch", ErrBadChunk)
	}
	d.src.Reset(comp)
	defer d.src.Reset(nil) // a pooled decoder must not pin the image
	if d.fr == nil {
		d.fr = flate.NewReader(&d.src)
	} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return dst, fmt.Errorf("%w: %v", ErrBadChunk, err)
	}
	raw, err := readGrow(d.fr, d.raw, h.info.RawLen)
	d.raw = raw
	if err != nil {
		return dst, fmt.Errorf("%w: inflating payload: %v", ErrBadChunk, err)
	}
	// The payload must be exactly RawLen bytes.
	var one [1]byte
	if n, _ := d.fr.Read(one[:]); n != 0 {
		return dst, fmt.Errorf("%w: payload longer than declared %d bytes", ErrBadChunk, h.info.RawLen)
	}

	b := d.raw
	off := 0
	u := func() (uint64, bool) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	s := func() (int64, bool) {
		v, n := binary.Varint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	prev := uint64(0)
	for i := 0; i < h.info.Events; i++ {
		if off >= len(b) {
			return dst, fmt.Errorf("%w: payload ends at event %d/%d", ErrBadChunk, i+1, h.info.Events)
		}
		kind := b[off]
		off++
		dt, ok := u()
		reg, ok2 := u()
		a, ok3 := s()
		bb, ok4 := s()
		c, ok5 := s()
		if !(ok && ok2 && ok3 && ok4 && ok5) {
			return dst, fmt.Errorf("%w: bad varint at event %d/%d", ErrBadChunk, i+1, h.info.Events)
		}
		prev += dt
		dst = append(dst, Event{
			Kind: EvKind(kind), Time: prev, Region: RegionID(reg),
			A: int32(a), B: int32(bb), C: c,
		})
	}
	if off != len(b) {
		return dst, fmt.Errorf("%w: %d trailing payload bytes after %d events", ErrBadChunk, len(b)-off, h.info.Events)
	}
	return dst, nil
}

// readGrow reads exactly n bytes from r into buf's storage.  When buf
// is too small its capacity grows only as data arrives, so a corrupt
// length costs at most about twice the bytes r actually holds.
func readGrow(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) >= n {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = buf[:0]
	for len(buf) < n {
		k := min(n-len(buf), max(len(buf), 1<<16))
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+k]); err != nil {
			return buf, err
		}
		buf = buf[:len(buf)+k]
	}
	return buf, nil
}

// chunkJob is one chunk record found by the image walk: its header,
// its compressed payload (a window of the image) and where its events
// go.
type chunkJob struct {
	h     chunkHeader
	comp  []byte
	start int // events of the location in earlier chunks
	ord   int // zero-based chunk ordinal within the location
}

// readChunked materialises a version-2 (chunked) trace image; p reads
// b and has consumed the magic and version.  It is strict: any corrupt
// or truncated record fails the read (use OpenChunkFile for per-chunk
// recovery).
//
// A sequential walk parses every record but the chunk payloads, which
// sizes each location exactly from the chunk headers' event counts.
// Up to codecWorkers goroutines then check, inflate and decode the
// payloads, each writing its chunk's events into place.  The error is
// the one of the first failing record in file order, whichever worker
// finds it, so it does not depend on the worker count.
func readChunked(b []byte, p *posReader) (*Trace, error) {
	clock, err := p.str(maxStringLen)
	if err != nil {
		return nil, fail("clock name", err)
	}
	t := New(clock)
	var jobs []chunkJob
	locs, atIndex, walkErr := walkRecords(p, int64(len(b)),
		func(name string, role Role) (int, error) {
			err := t.internRegion(name, role)
			return len(t.Regions), err
		},
		func(h chunkHeader, payload int64, start, ord int) {
			jobs = append(jobs, chunkJob{
				h: h, comp: b[payload : payload+int64(h.info.CompLen)], start: start, ord: ord,
			})
		})
	if atIndex {
		// The index repeats what the records already said; the walk
		// ends at it.
		n, err := p.uvarint()
		if err != nil {
			walkErr = fail("index header", err)
		} else if n > maxChunkBytes {
			walkErr = fmt.Errorf("trace: implausible index length %d", n)
		}
	}
	// A header can claim 64M events in a few bytes, so the counts size
	// the locations only while the image could back them; past that the
	// chunks decode in order, each location growing as its events
	// actually arrive.
	budget := uint64(len(b)) * maxPresizeEventsPerByte
	total := uint64(0)
	for _, l := range locs {
		total += uint64(l.Events)
	}
	presized := total <= budget
	for _, l := range locs {
		li := t.AddLocation(l.Rank, l.Thread)
		if presized && l.Events > 0 {
			t.Locs[li].Events = make([]Event, l.Events)
		}
	}
	if err := decodeChunks(t, jobs, presized); err != nil {
		return nil, err
	}
	if walkErr != nil {
		return nil, walkErr
	}
	return t, nil
}

// decodeChunks decodes every job into t.  Into presized locations the
// jobs decode concurrently, each into its own window of the location's
// events; otherwise they decode in order on this goroutine, appending.
// The error is that of the first failing job in file order: a worker
// claims no job past a known failure, and the jobs before one are all
// claimed, so the earliest failure is always found.
func decodeChunks(t *Trace, jobs []chunkJob, presized bool) error {
	workers := 1
	if presized {
		workers = max(1, min(codecWorkers(), len(jobs)))
	}
	var (
		failAt atomic.Int64 // index of the earliest failed job so far
		mu     sync.Mutex   // guards jobErr and failAt's updates
		jobErr error
	)
	failAt.Store(int64(len(jobs)))
	forEachChunk(len(jobs), workers, &chunkDecoders, func(d *chunkDecoder, j int) bool {
		if int64(j) > failAt.Load() {
			return false
		}
		job := &jobs[j]
		l := &t.Locs[job.h.info.Loc]
		n := job.h.info.Events
		var err error
		if presized {
			_, err = d.decode(job.h, job.comp, l.Events[job.start:job.start:job.start+n])
		} else {
			l.Events, err = d.decode(job.h, job.comp, l.Events)
		}
		if err == nil {
			return true
		}
		mu.Lock()
		if int64(j) < failAt.Load() {
			failAt.Store(int64(j))
			jobErr = chunkRecordErr(job.h.info, LocInfo{Rank: l.Rank, Thread: l.Thread}, job.start, job.ord, err)
		}
		mu.Unlock()
		return false
	})
	return jobErr
}

// walkRecords parses the records of a chunked image of the given size
// from p on, stepping over each chunk's payload, until the end of the
// image or its index record (atIndex; p is then just past the tag).
// It reports each defined region to region, which returns how many
// regions are defined so far, and each chunk record to chunk, with the offset of its payload, the events of its location in
// earlier chunks and its zero-based ordinal within the location.  locs
// are the defined locations with their event totals.  err is the first
// record that fails to parse or is cut off; every record before it has
// been reported.
//
// Both the strict image reader and ChunkFile's index-less fallback
// walk a file through here, so they agree on what a well-formed record
// is and on the error a broken one reports.
func walkRecords(p *posReader, size int64, region func(string, Role) (int, error),
	chunk func(h chunkHeader, payload int64, start, ord int)) (locs []LocInfo, atIndex bool, err error) {
	var ords []int
	regions := 0
	for {
		tagOff := p.off
		tag, err := p.ReadByte()
		if err == io.EOF {
			return locs, false, nil // index-less image: records to the end
		}
		if err != nil {
			return locs, false, fail("record tag", err)
		}
		switch tag {
		case tagDefs:
			if err := readDefs(p,
				func(name string, role Role) (err error) {
					regions, err = region(name, role)
					return err
				},
				func(rank, thread int) {
					locs = append(locs, LocInfo{Rank: rank, Thread: thread})
					ords = append(ords, 0)
				},
				regions, len(locs)); err != nil {
				return locs, false, err
			}
		case tagChunk:
			h, err := readChunkHeader(p, tagOff)
			if err != nil {
				return locs, false, fail("chunk header", err)
			}
			li := h.info.Loc
			if li >= len(locs) {
				return locs, false, fmt.Errorf("trace: chunk references undefined location %d (have %d)", li, len(locs))
			}
			l := &locs[li]
			if int64(h.info.CompLen) > size-p.off {
				return locs, false, chunkRecordErr(h.info, *l, l.Events, ords[li], fail("chunk payload", io.ErrUnexpectedEOF))
			}
			chunk(h, p.off, l.Events, ords[li])
			if err := p.discard(h.info.CompLen); err != nil {
				return locs, false, chunkRecordErr(h.info, *l, l.Events, ords[li], fail("chunk payload", err))
			}
			l.Events += h.info.Events
			ords[li]++
		case tagIndex:
			return locs, true, nil
		default:
			return locs, false, fmt.Errorf("trace: unknown record tag 0x%02x at offset %d", tag, tagOff)
		}
	}
}

// readDefs parses a defs record, invoking the callbacks for each new
// region and location.  haveRegions/haveLocs are the counts before this
// record, for the sanity caps.
func readDefs(p *posReader, region func(string, Role) error, loc func(int, int), haveRegions, haveLocs int) error {
	nr, err := p.uvarint()
	if err != nil {
		return fail("defs region count", err)
	}
	if nr+uint64(haveRegions) > maxRegions {
		return fmt.Errorf("trace: implausible region count %d", nr+uint64(haveRegions))
	}
	for i := uint64(0); i < nr; i++ {
		name, err := p.str(maxStringLen)
		if err != nil {
			return fail("defs region name", err)
		}
		role, err := p.ReadByte()
		if err != nil {
			return fail("defs region role", err)
		}
		if err := region(name, Role(role)); err != nil {
			return err
		}
	}
	nl, err := p.uvarint()
	if err != nil {
		return fail("defs location count", err)
	}
	if nl+uint64(haveLocs) > maxLocations {
		return fmt.Errorf("trace: implausible location count %d", nl+uint64(haveLocs))
	}
	for i := uint64(0); i < nl; i++ {
		rank, err := p.uvarint()
		if err != nil {
			return fail("defs location rank", err)
		}
		thread, err := p.uvarint()
		if err != nil {
			return fail("defs location thread", err)
		}
		loc(int(rank), int(thread))
	}
	return nil
}

// ChunkFile is a random-access view of a chunked trace file: the
// definition tables, the chunk index, and cursors that decode one chunk
// at a time.  Open it with OpenChunkFile (or NewChunkFile over any
// io.ReaderAt).  If the trailing index is missing or corrupt — a
// truncated recording — the constructor falls back to a sequential scan
// and keeps every chunk whose header was intact; the damage, if any, is
// reported by Damage while the surviving chunks stay readable.
type ChunkFile struct {
	ra   io.ReaderAt
	size int64
	c    io.Closer

	Clock   string
	Regions []RegionDef

	locs      []LocInfo
	chunks    []ChunkInfo // file order
	locChunks [][]int     // per location, indices into chunks

	// IndexOK reports whether the trailing index was present and
	// passed its CRC; when false the chunk list was rebuilt by a
	// sequential scan.
	IndexOK bool

	// Damage is the structured error describing a truncated or corrupt
	// tail encountered during the fallback scan, or nil.  The chunks
	// before the damage remain readable.
	Damage error

	// pool recycles decode state (window buffer, decompressor, scratch)
	// between cursors, so re-opening cursors over a long-lived file —
	// the steady state of every streaming replay — does not re-allocate.
	pool sync.Pool
}

// decodeState is the per-cursor machinery a ChunkFile pools: the chunk
// decoder's reusable buffers, a scratch buffer for raw chunk records,
// and the event window they fill.
type decodeState struct {
	dec     chunkDecoder
	scratch []byte
	win     []Event
}

// OpenChunkFile opens a chunked (version-2) trace file for random
// access.  It fails on version-1 files (use ReadFile, which handles
// both) and on files whose header is unreadable.
func OpenChunkFile(path string) (*ChunkFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cf, err := NewChunkFile(f, st.Size())
	if err != nil {
		f.Close()
		var re *RecordError
		if errors.As(err, &re) {
			re.Path = path
			return nil, err
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cf.c = f
	return cf, nil
}

// Close releases the underlying file, if OpenChunkFile opened one.
func (cf *ChunkFile) Close() error {
	if cf.c != nil {
		return cf.c.Close()
	}
	return nil
}

// NewChunkFile builds a ChunkFile over an in-memory or on-disk chunked
// trace image.
func NewChunkFile(ra io.ReaderAt, size int64) (*ChunkFile, error) {
	cf := &ChunkFile{ra: ra, size: size}
	hdr := cf.section(0)
	if err := cf.readHeader(hdr); err != nil {
		return nil, err
	}
	bodyStart := hdr.off
	if cf.loadIndex() {
		cf.IndexOK = true
	} else {
		cf.scan(bodyStart)
	}
	cf.locChunks = make([][]int, len(cf.locs))
	for i, c := range cf.chunks {
		if c.Loc < len(cf.locChunks) {
			cf.locChunks[c.Loc] = append(cf.locChunks[c.Loc], i)
		}
	}
	return cf, nil
}

func (cf *ChunkFile) section(off int64) *posReader {
	return sectionReader(cf.ra, cf.size, off)
}

// sectionReader reads an image of the given size sequentially from off.
func sectionReader(ra io.ReaderAt, size, off int64) *posReader {
	sr := io.NewSectionReader(ra, off, size-off)
	return &posReader{br: bufio.NewReader(sr), off: off}
}

// readHeader consumes the magic, version and clock name.
func (cf *ChunkFile) readHeader(p *posReader) error {
	head := make([]byte, 4)
	if err := p.full(head); err != nil {
		return fail("magic", err)
	}
	if string(head) != magic {
		return fmt.Errorf("trace: bad magic %q (not an LTRC trace)", head)
	}
	ver, err := p.uvarint()
	if err != nil {
		return fail("version", err)
	}
	if ver != chunkFormatVersion {
		return fmt.Errorf("trace: not a chunked trace (version %d; chunked is version %d)", ver, chunkFormatVersion)
	}
	clock, err := p.str(maxStringLen)
	if err != nil {
		return fail("clock name", err)
	}
	cf.Clock = clock
	return nil
}

// loadIndex tries the trailer + index record; it reports success.
func (cf *ChunkFile) loadIndex() bool {
	regions, locs, chunks, ok := readIndex(cf.ra, cf.size)
	if ok {
		cf.Regions, cf.locs, cf.chunks = regions, locs, chunks
	}
	return ok
}

// readIndex parses the trailer and index record of a chunked image of
// the given size.  ok is false if either is missing, fails its CRC or
// declares more entries than its body can hold.
func readIndex(ra io.ReaderAt, size int64) (regions []RegionDef, locs []LocInfo, chunks []ChunkInfo, ok bool) {
	if size < 12 {
		return
	}
	var tail [12]byte
	if _, err := ra.ReadAt(tail[:], size-12); err != nil {
		return
	}
	if string(tail[8:]) != indexMagic {
		return
	}
	off := int64(binary.LittleEndian.Uint64(tail[:8]))
	if off <= 0 || off >= size-12 {
		return
	}
	p := sectionReader(ra, size, off)
	tag, err := p.ReadByte()
	if err != nil || tag != tagIndex {
		return
	}
	n, err := p.uvarint()
	if err != nil || n > maxChunkBytes || n > uint64(size-p.off) {
		return
	}
	body := make([]byte, n)
	if err := p.full(body); err != nil {
		return
	}
	var crcb [4]byte
	if err := p.full(crcb[:]); err != nil {
		return
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcb[:]) {
		return
	}

	// Each entry takes at least one byte per field, which bounds every
	// count by the body length before anything is allocated from it.
	bp := &posReader{br: bufio.NewReader(bytes.NewReader(body))}
	nr, err := bp.uvarint()
	if err != nil || nr > maxRegions || nr > n/2 {
		return
	}
	regions = make([]RegionDef, 0, nr)
	for i := uint64(0); i < nr; i++ {
		name, err := bp.str(maxStringLen)
		if err != nil {
			return
		}
		role, err := bp.ReadByte()
		if err != nil {
			return
		}
		regions = append(regions, RegionDef{Name: name, Role: Role(role)})
	}
	nl, err := bp.uvarint()
	if err != nil || nl > maxLocations || nl > n/3 {
		return
	}
	locs = make([]LocInfo, 0, nl)
	for i := uint64(0); i < nl; i++ {
		rank, err := bp.uvarint()
		if err != nil {
			return
		}
		thread, err := bp.uvarint()
		if err != nil {
			return
		}
		total, err := bp.uvarint()
		if err != nil {
			return
		}
		locs = append(locs, LocInfo{Rank: int(rank), Thread: int(thread), Events: int(total)})
	}
	nc, err := bp.uvarint()
	if err != nil || nc > n/7 {
		return
	}
	chunks = make([]ChunkInfo, 0, nc)
	for i := uint64(0); i < nc; i++ {
		var v [7]uint64
		for j := range v {
			x, err := bp.uvarint()
			if err != nil {
				return
			}
			v[j] = x
		}
		if v[0] >= uint64(size) || v[1] >= nl || v[5] > maxChunkBytes || v[6] > maxChunkBytes {
			return
		}
		chunks = append(chunks, ChunkInfo{
			Offset: int64(v[0]), Loc: int(v[1]), Events: int(v[2]),
			FirstTime: v[3], LastTime: v[4], RawLen: int(v[5]), CompLen: int(v[6]),
		})
	}
	return regions, locs, chunks, true
}

// maxPresizeEventsPerByte caps the events ReadBytes allocates up front
// per byte of the image.  The densest traces the simulator writes
// (logical-clock LULESH) hold under one event per byte, so real images
// are never capped, while chunk headers that lie cannot allocate more
// than 512 bytes of events per image byte.
const maxPresizeEventsPerByte = 16

// scan rebuilds definitions and the chunk list by walking the records
// sequentially, stopping (and recording Damage) at the first record
// that is cut off or unparseable.
func (cf *ChunkFile) scan(start int64) {
	cf.locs, _, cf.Damage = walkRecords(cf.section(start), cf.size,
		func(name string, role Role) (int, error) {
			cf.Regions = append(cf.Regions, RegionDef{Name: name, Role: role})
			return len(cf.Regions), nil
		},
		func(h chunkHeader, _ int64, _, _ int) {
			cf.chunks = append(cf.chunks, h.info)
		})
}

// Chunks returns the chunk index in file order.
func (cf *ChunkFile) Chunks() []ChunkInfo { return cf.chunks }

// Locs returns the per-location metadata.
func (cf *ChunkFile) Locs() []LocInfo { return cf.locs }

// maxChunkRecordHeader bounds the encoded size of a chunk record's
// header: the tag byte, six varints and the 4-byte CRC.
const maxChunkRecordHeader = 1 + 6*binary.MaxVarintLen64 + 4

// chunkRecordErr wraps the failure of a chunk record with its
// location, the range of the location's events it holds (start is the
// events in the location's earlier chunks) and its one-based ordinal
// within the location.
func chunkRecordErr(info ChunkInfo, li LocInfo, start, ord int, err error) error {
	return &RecordError{
		Loc: info.Loc, Rank: li.Rank, Thread: li.Thread,
		Event: start, Events: start + info.Events, Chunk: ord + 1, Err: err,
	}
}

// readChunk loads chunk ci's payload (re-parsing its header from the
// file, which also guards against a stale index) and appends its events
// to dst.  The whole record is fetched with a single ReadAt into ds's
// pooled scratch buffer and parsed in place, so steady-state chunk
// reads allocate nothing.
func (cf *ChunkFile) readChunk(ds *decodeState, ci int, dst []Event) ([]Event, error) {
	info := cf.chunks[ci]
	li := cf.locs[info.Loc]
	ord := 0
	for _, idx := range cf.locChunks[info.Loc] {
		if idx == ci {
			break
		}
		ord++
	}
	need := int64(maxChunkRecordHeader + info.CompLen)
	if rem := cf.size - info.Offset; need > rem {
		need = rem
	}
	if need < 0 {
		need = 0
	}
	if int64(cap(ds.scratch)) < need {
		ds.scratch = make([]byte, need)
	}
	buf := ds.scratch[:need]
	if _, err := cf.ra.ReadAt(buf, info.Offset); err != nil {
		return dst, chunkRecordErr(info, li, 0, ord, fail("chunk record", err))
	}
	if len(buf) == 0 || buf[0] != tagChunk {
		return dst, chunkRecordErr(info, li, 0, ord, fmt.Errorf("%w: index points at a non-chunk record", ErrBadChunk))
	}
	var h chunkHeader
	h.info.Offset = info.Offset
	off := 1
	var fields [6]uint64
	for i := range fields {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return dst, chunkRecordErr(info, li, 0, ord, fmt.Errorf("%w while reading chunk header", ErrTruncated))
		}
		fields[i] = v
		off += n
	}
	if off+4 > len(buf) {
		return dst, chunkRecordErr(info, li, 0, ord, fmt.Errorf("%w while reading chunk header", ErrTruncated))
	}
	loc, nev, rawLen, compLen := fields[0], fields[1], fields[4], fields[5]
	if loc > maxLocations || rawLen > maxChunkBytes || compLen > maxChunkBytes || nev > rawLen+1 {
		return dst, chunkRecordErr(info, li, 0, ord, fmt.Errorf("trace: implausible chunk header (loc %d, %d events, %d raw bytes, %d compressed)",
			loc, nev, rawLen, compLen))
	}
	h.info.Loc = int(loc)
	h.info.Events = int(nev)
	h.info.FirstTime = fields[2]
	h.info.LastTime = fields[3]
	h.info.RawLen = int(rawLen)
	h.info.CompLen = int(compLen)
	h.crc = binary.LittleEndian.Uint32(buf[off:])
	off += 4
	if h.info.Loc != info.Loc || h.info.Events != info.Events || h.info.CompLen != info.CompLen {
		return dst, chunkRecordErr(info, li, 0, ord, fmt.Errorf("%w: header disagrees with index", ErrBadChunk))
	}
	if off+h.info.CompLen > len(buf) {
		return dst, chunkRecordErr(info, li, 0, ord, fmt.Errorf("%w while reading chunk payload", ErrTruncated))
	}
	out, err := ds.dec.decode(h, buf[off:off+h.info.CompLen], dst)
	if err != nil {
		return out, chunkRecordErr(info, li, 0, ord, err)
	}
	return out, nil
}

// Stream returns the streaming view of the file.  Cursors decode one
// chunk at a time into a reused window, so iterating an arbitrarily
// large trace holds O(chunk) memory.
func (cf *ChunkFile) Stream() *Stream {
	return cf.stream(0, ^uint64(0), false)
}

// Range returns a stream restricted to events with minT <= Time <=
// maxT.  The chunk index prunes chunks entirely outside the window, so
// a narrow range over a huge file decodes only the overlapping chunks.
// Per-location event counts in the returned stream are upper bounds
// (the overlapping chunks' totals), not exact counts.
func (cf *ChunkFile) Range(minT, maxT uint64) *Stream {
	return cf.stream(minT, maxT, true)
}

func (cf *ChunkFile) stream(minT, maxT uint64, bounded bool) *Stream {
	locs := cf.locs
	if bounded {
		locs = make([]LocInfo, len(cf.locs))
		copy(locs, cf.locs)
		for i := range locs {
			n := 0
			for _, ci := range cf.locChunks[i] {
				c := cf.chunks[ci]
				if c.LastTime >= minT && c.FirstTime <= maxT {
					n += c.Events
				}
			}
			locs[i].Events = n
		}
	}
	return &Stream{
		Clock:   cf.Clock,
		Regions: cf.Regions,
		locs:    locs,
		open: func(loc int) *Cursor {
			chunks := cf.locChunks[loc]
			pos := 0
			var ds *decodeState
			return &Cursor{refill: func(c *Cursor) error {
				if ds == nil {
					if v := cf.pool.Get(); v != nil {
						ds = v.(*decodeState)
						c.win = ds.win[:0] // adopt the pooled window's capacity
					} else {
						ds = &decodeState{}
					}
				}
				for {
					if pos >= len(chunks) {
						// Exhausted: hand the window and decoder back for
						// the next cursor.  The cursor never yields again,
						// so nothing aliases the recycled buffers.
						ds.win = c.win[:0]
						cf.pool.Put(ds)
						ds = nil
						return io.EOF
					}
					ci := chunks[pos]
					info := cf.chunks[ci]
					if bounded && (info.LastTime < minT || info.FirstTime > maxT) {
						pos++
						continue
					}
					pos++
					win, err := cf.readChunk(ds, ci, c.win[:0])
					if err != nil {
						return err
					}
					if bounded {
						kept := win[:0]
						for _, e := range win {
							if e.Time >= minT && e.Time <= maxT {
								kept = append(kept, e)
							}
						}
						win = kept
						if len(win) == 0 {
							continue
						}
					}
					c.win = win
					return nil
				}
			}}
		},
	}
}
