package cube

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Compact binary encoding of a profile, the run cache's profile section
// (internal/runcache).  Cube JSON (Write/Read) stays the only
// user-facing profile format; this one exists so a cache hit does not
// pay for JSON.  Integers are uvarints:
//
//	clock: length + bytes
//	location count, then per location: name
//	metric count, then per metric: name, desc (length + bytes each),
//	  parent + 1 (0 for a root)
//	path count, then per path: name, parent + 1
//	cell count, then per present cell in (metric, path) order: metric,
//	  path, count of non-zero values, then per non-zero value the gap to
//	  its location (location minus the previous one's, minus one; the
//	  first counts from zero) and its raw IEEE-754 bits, 8 bytes
//	  little-endian
//
// A value is non-zero when its bits are, so -0.0 and NaN payloads
// survive; a present cell with no non-zero values (one whose values
// cancelled) is still listed.

// AppendBinary appends the profile's binary encoding to dst.
func (p *Profile) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, p.binarySize())
	putS := func(s string) {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	putS(p.Clock)
	dst = binary.AppendUvarint(dst, uint64(len(p.LocNames)))
	for _, l := range p.LocNames {
		putS(l)
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Metrics)))
	for _, m := range p.Metrics {
		putS(m.Name)
		putS(m.Desc)
		dst = binary.AppendUvarint(dst, uint64(m.Parent+1))
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Paths)))
	for _, c := range p.Paths {
		putS(c.Name)
		dst = binary.AppendUvarint(dst, uint64(c.Parent+1))
	}
	dst = binary.AppendUvarint(dst, uint64(p.numCells()))
	for m, row := range p.sev {
		for path, vals := range row {
			if vals == nil {
				continue
			}
			nz := 0
			for _, v := range vals {
				if math.Float64bits(v) != 0 {
					nz++
				}
			}
			dst = binary.AppendUvarint(dst, uint64(m))
			dst = binary.AppendUvarint(dst, uint64(path))
			dst = binary.AppendUvarint(dst, uint64(nz))
			next := 0
			for l, v := range vals {
				if bits := math.Float64bits(v); bits != 0 {
					dst = binary.AppendUvarint(dst, uint64(l-next))
					dst = binary.LittleEndian.AppendUint64(dst, bits)
					next = l + 1
				}
			}
		}
	}
	return dst
}

func (p *Profile) numCells() int {
	n := 0
	for _, row := range p.sev {
		for _, vals := range row {
			if vals != nil {
				n++
			}
		}
	}
	return n
}

// binarySize bounds the length of the binary encoding from above, so
// AppendBinary grows its buffer once.
func (p *Profile) binarySize() int {
	str := func(s string) int { return binary.MaxVarintLen64 + len(s) }
	n := str(p.Clock) + 4*binary.MaxVarintLen64
	for _, m := range p.Metrics {
		n += str(m.Name) + str(m.Desc) + binary.MaxVarintLen32
	}
	for _, c := range p.Paths {
		n += str(c.Name) + binary.MaxVarintLen32
	}
	for _, l := range p.LocNames {
		n += str(l)
	}
	// A gap is below the location count, so its varint is no longer.
	valueLen := 8 + len(binary.AppendUvarint(nil, uint64(len(p.LocNames))))
	for _, row := range p.sev {
		for _, vals := range row {
			if vals == nil {
				continue
			}
			n += 3 * binary.MaxVarintLen32
			for _, v := range vals {
				if math.Float64bits(v) != 0 {
					n += valueLen
				}
			}
		}
	}
	return n
}

// Cell storage is not paid for by the encoding's length: every present
// cell holds a value per location and every metric row with a cell a
// slot per path, so a few bytes of cell records could claim gigabytes.
// ReadBinary therefore allocates at most cellSlack bytes plus
// cellBytesPerByte per encoded byte for them, far more than any profile
// the analyzer writes needs (it encodes a non-zero value in 9 bytes and
// rarely has fewer than one per few dozen values).
const (
	cellSlack        = 8 << 20
	cellBytesPerByte = 512
)

var errShortProfile = errors.New("cube: binary profile truncated")

// ReadBinary decodes a profile written by AppendBinary.  It rejects
// (never panics on, never over-allocates for) malformed input: every
// count is bounded by the bytes left to encode it, ids must be in
// range, parents must precede their children, cells must be in strictly
// increasing (metric, path) order and trailing bytes are an error.
func ReadBinary(b []byte) (*Profile, error) {
	d := binDecoder{b: b}
	clock := d.str()
	nl := d.count(1)
	locs := make([]string, 0, nl)
	for i := 0; i < nl; i++ {
		locs = append(locs, d.str())
	}
	p := New(clock, locs)
	nm := d.count(3)
	for i := 0; i < nm && d.err == nil; i++ {
		m := Metric{Name: d.str(), Desc: d.str(), Parent: MetricID(d.parent())}
		if d.err == nil {
			d.err = p.defineMetric(m)
		}
	}
	np := d.count(2)
	for i := 0; i < np && d.err == nil; i++ {
		c := CallPath{Name: d.str(), Parent: PathID(d.parent())}
		if d.err == nil {
			d.err = p.definePath(c)
		}
	}
	nc := d.count(3)
	budget := cellSlack + cellBytesPerByte*uint64(len(b))
	last := -1
	for i := 0; i < nc && d.err == nil; i++ {
		m, path, nz := d.uvarint(), d.uvarint(), d.uvarint()
		if d.err != nil {
			break
		}
		if m >= uint64(nm) || path >= uint64(np) || nz > uint64(nl) {
			return nil, fmt.Errorf("cube: binary profile cell (%d, %d) with %d values is out of range", m, path, nz)
		}
		if key := int(m)*np + int(path); key > last {
			last = key
		} else {
			return nil, fmt.Errorf("cube: binary profile cell (%d, %d) out of order", m, path)
		}
		// A new cell's values, and the row slots up to it, which append
		// may allocate twice over.
		cost := 8 * uint64(nl)
		if n := uint64(len(p.sev[m])); path >= n {
			cost += 48 * (path + 1 - n)
		}
		if cost > budget {
			return nil, fmt.Errorf("cube: binary profile cells need more storage than its %d bytes can describe", len(b))
		}
		budget -= cost
		vals := p.cell(MetricID(m), PathID(path))
		l := uint64(0)
		for j := uint64(0); j < nz; j++ {
			gap, bits := d.uvarint(), d.u64()
			if d.err != nil {
				break
			}
			if gap >= uint64(nl)-l || bits == 0 {
				return nil, fmt.Errorf("cube: binary profile cell (%d, %d) has a bad value record", m, path)
			}
			l += gap
			vals[l] = math.Float64frombits(bits)
			l++
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("cube: %d trailing bytes after binary profile", len(d.b))
	}
	return p, nil
}

// binDecoder consumes a binary profile; the first failure sticks in err
// and every later read returns zero.
type binDecoder struct {
	b   []byte
	err error
}

func (d *binDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errShortProfile
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = errShortProfile
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *binDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = errShortProfile
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads an entry count whose entries take at least minBytes each.
func (d *binDecoder) count(minBytes int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/minBytes) {
		d.err = fmt.Errorf("cube: binary profile count %d exceeds its %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

// parent reads a parent id stored as id + 1.
func (d *binDecoder) parent() int64 {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.err = fmt.Errorf("cube: binary profile parent %d out of range", v)
		return 0
	}
	return int64(v) - 1
}
