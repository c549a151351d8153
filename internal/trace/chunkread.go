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
)

// ErrBadChunk reports a chunk whose payload failed its CRC or decoded
// inconsistently with its header.  Errors from chunk readers wrap it
// (inside a *RecordError carrying the location and chunk ordinal), so
// callers can distinguish payload corruption from plain truncation.
var ErrBadChunk = errors.New("trace: chunk payload corrupt")

// posReader is a sequential reader that tracks its absolute offset, so
// the chunk scanner can record where each chunk record starts.
type posReader struct {
	br  *bufio.Reader
	off int64
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
	comp []byte
	raw  []byte
	fr   io.ReadCloser
	src  bytes.Reader
}

// decode verifies the CRC, inflates the payload and appends the decoded
// events to dst.  The compressed bytes must already be in d.comp.
func (d *chunkDecoder) decode(h chunkHeader, dst []Event) ([]Event, error) {
	if crc32.ChecksumIEEE(d.comp) != h.crc {
		return dst, fmt.Errorf("%w: CRC mismatch", ErrBadChunk)
	}
	d.src.Reset(d.comp)
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

// seqDecoders recycles readChunkedSeq's decoder — flate state and
// buffers — across reads, the steady state of replaying a cache.
var seqDecoders = sync.Pool{New: func() any { return new(chunkDecoder) }}

// readChunkedSeq materialises a version-2 (chunked) trace from a
// sequential reader.  The magic and version have already been consumed.
// It is strict: any corrupt or truncated record fails the read (use
// OpenChunkFile for per-chunk recovery).  hint, if non-nil, gives the
// initial event capacity of each location by index.
func readChunkedSeq(br *bufio.Reader, hint []int) (*Trace, error) {
	p := &posReader{br: br}
	clock, err := p.str(maxStringLen)
	if err != nil {
		return nil, fail("clock name", err)
	}
	t := New(clock)
	dec := seqDecoders.Get().(*chunkDecoder)
	defer seqDecoders.Put(dec)
	chunkOfLoc := make([]int, 0, 16)
	for {
		tagOff := p.off
		tag, err := p.ReadByte()
		if err == io.EOF {
			return t, nil // index-less file: records to the end
		}
		if err != nil {
			return nil, fail("record tag", err)
		}
		switch tag {
		case tagDefs:
			if err := readDefs(p, t.internRegion,
				func(rank, thread int) {
					li := t.AddLocation(rank, thread)
					if li < len(hint) && hint[li] > 0 {
						t.Locs[li].Events = make([]Event, 0, hint[li])
					}
					chunkOfLoc = append(chunkOfLoc, 0)
				},
				len(t.Regions), len(t.Locs)); err != nil {
				return nil, err
			}
		case tagChunk:
			h, err := readChunkHeader(p, tagOff)
			if err != nil {
				return nil, fail("chunk header", err)
			}
			if h.info.Loc >= len(t.Locs) {
				return nil, fmt.Errorf("trace: chunk references undefined location %d (have %d)", h.info.Loc, len(t.Locs))
			}
			l := &t.Locs[h.info.Loc]
			mkerr := func(err error) error {
				return &RecordError{
					Loc: h.info.Loc, Rank: l.Rank, Thread: l.Thread,
					Event: len(l.Events), Events: len(l.Events) + h.info.Events,
					Chunk: chunkOfLoc[h.info.Loc] + 1, Err: err,
				}
			}
			comp, err := readGrow(p, dec.comp, h.info.CompLen)
			dec.comp = comp
			if err != nil {
				return nil, mkerr(fail("chunk payload", err))
			}
			events, err := dec.decode(h, l.Events)
			l.Events = events
			if err != nil {
				return nil, mkerr(err)
			}
			chunkOfLoc[h.info.Loc]++
		case tagIndex:
			// The index repeats what the records already said; skip it
			// and the trailer.
			n, err := p.uvarint()
			if err != nil {
				return nil, fail("index header", err)
			}
			if n > maxChunkBytes {
				return nil, fmt.Errorf("trace: implausible index length %d", n)
			}
			if _, err := io.CopyN(io.Discard, p, int64(n)+4+12); err != nil && err != io.EOF {
				return nil, fail("index body", err)
			}
			return t, nil
		default:
			return nil, fmt.Errorf("trace: unknown record tag 0x%02x at offset %d", tag, tagOff)
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

// maxPresizeEventsPerByte caps the events an index may presize per byte
// of the image.  The densest traces the simulator writes (logical-clock
// LULESH) hold under one event per byte, so real images are never
// capped, while a lying index cannot allocate more than 512 bytes of
// events per image byte.
const maxPresizeEventsPerByte = 16

// presizeHint returns the per-location event totals of a chunked
// image's index, for sizing the decode, or nil if the image has no
// valid index or the index claims more events than the cap allows.
func presizeHint(b []byte) []int {
	_, locs, _, ok := readIndex(bytes.NewReader(b), int64(len(b)))
	if !ok {
		return nil
	}
	budget := uint64(len(b)) * maxPresizeEventsPerByte
	hint := make([]int, len(locs))
	for i, l := range locs {
		if uint64(l.Events) > budget {
			return nil
		}
		budget -= uint64(l.Events)
		hint[i] = l.Events
	}
	return hint
}

// scan rebuilds definitions and the chunk list by walking the records
// sequentially, stopping (and recording Damage) at the first record
// that is cut off or unparseable.
func (cf *ChunkFile) scan(start int64) {
	p := cf.section(start)
	counts := make([]int, 0, 16)
	chunkOfLoc := make([]int, 0, 16)
	for {
		tagOff := p.off
		tag, err := p.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			cf.Damage = fail("record tag", err)
			break
		}
		switch tag {
		case tagDefs:
			if err := readDefs(p,
				func(name string, role Role) error {
					cf.Regions = append(cf.Regions, RegionDef{Name: name, Role: role})
					return nil
				},
				func(rank, thread int) {
					cf.locs = append(cf.locs, LocInfo{Rank: rank, Thread: thread})
					counts = append(counts, 0)
					chunkOfLoc = append(chunkOfLoc, 0)
				},
				len(cf.Regions), len(cf.locs)); err != nil {
				cf.Damage = err
				goto done
			}
		case tagChunk:
			h, err := readChunkHeader(p, tagOff)
			if err != nil {
				cf.Damage = fail("chunk header", err)
				goto done
			}
			if h.info.Loc >= len(cf.locs) {
				cf.Damage = fmt.Errorf("trace: chunk references undefined location %d (have %d)", h.info.Loc, len(cf.locs))
				goto done
			}
			if p.off+int64(h.info.CompLen) > cf.size {
				li := cf.locs[h.info.Loc]
				cf.Damage = &RecordError{
					Loc: h.info.Loc, Rank: li.Rank, Thread: li.Thread,
					Event: counts[h.info.Loc], Events: counts[h.info.Loc] + h.info.Events,
					Chunk: chunkOfLoc[h.info.Loc] + 1,
					Err:   fmt.Errorf("%w while reading chunk payload", ErrTruncated),
				}
				goto done
			}
			if _, err := io.CopyN(io.Discard, p, int64(h.info.CompLen)); err != nil {
				cf.Damage = fail("chunk payload", err)
				goto done
			}
			cf.chunks = append(cf.chunks, h.info)
			counts[h.info.Loc] += h.info.Events
			chunkOfLoc[h.info.Loc]++
		case tagIndex:
			goto done // trailer was bad but records are complete up to here
		default:
			cf.Damage = fmt.Errorf("trace: unknown record tag 0x%02x at offset %d", tag, tagOff)
			goto done
		}
	}
done:
	for i := range cf.locs {
		cf.locs[i].Events = counts[i]
	}
}

// Chunks returns the chunk index in file order.
func (cf *ChunkFile) Chunks() []ChunkInfo { return cf.chunks }

// Locs returns the per-location metadata.
func (cf *ChunkFile) Locs() []LocInfo { return cf.locs }

// maxChunkRecordHeader bounds the encoded size of a chunk record's
// header: the tag byte, six varints and the 4-byte CRC.
const maxChunkRecordHeader = 1 + 6*binary.MaxVarintLen64 + 4

// chunkRecordErr wraps a chunk decode failure with its location and
// one-based chunk ordinal.
func chunkRecordErr(info ChunkInfo, li LocInfo, ord int, err error) error {
	return &RecordError{
		Loc: info.Loc, Rank: li.Rank, Thread: li.Thread,
		Event: 0, Events: info.Events, Chunk: ord + 1, Err: err,
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
		return dst, chunkRecordErr(info, li, ord, fail("chunk record", err))
	}
	if len(buf) == 0 || buf[0] != tagChunk {
		return dst, chunkRecordErr(info, li, ord, fmt.Errorf("%w: index points at a non-chunk record", ErrBadChunk))
	}
	var h chunkHeader
	h.info.Offset = info.Offset
	off := 1
	var fields [6]uint64
	for i := range fields {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return dst, chunkRecordErr(info, li, ord, fmt.Errorf("%w while reading chunk header", ErrTruncated))
		}
		fields[i] = v
		off += n
	}
	if off+4 > len(buf) {
		return dst, chunkRecordErr(info, li, ord, fmt.Errorf("%w while reading chunk header", ErrTruncated))
	}
	loc, nev, rawLen, compLen := fields[0], fields[1], fields[4], fields[5]
	if loc > maxLocations || rawLen > maxChunkBytes || compLen > maxChunkBytes || nev > rawLen+1 {
		return dst, chunkRecordErr(info, li, ord, fmt.Errorf("trace: implausible chunk header (loc %d, %d events, %d raw bytes, %d compressed)",
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
		return dst, chunkRecordErr(info, li, ord, fmt.Errorf("%w: header disagrees with index", ErrBadChunk))
	}
	if off+h.info.CompLen > len(buf) {
		return dst, chunkRecordErr(info, li, ord, fmt.Errorf("%w while reading chunk payload", ErrTruncated))
	}
	ds.dec.comp = buf[off : off+h.info.CompLen]
	out, err := ds.dec.decode(h, dst)
	if err != nil {
		return out, chunkRecordErr(info, li, ord, err)
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
