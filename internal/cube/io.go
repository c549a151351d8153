package cube

import (
	"encoding/json"
	"fmt"
	"io"
)

// profileJSON is the serialised form: flat severity records so the file is
// both compact and greppable.
type profileJSON struct {
	Clock    string       `json:"clock"`
	Metrics  []metricJSON `json:"metrics"`
	Paths    []pathJSON   `json:"paths"`
	LocNames []string     `json:"locations"`
	Sev      []sevJSON    `json:"severities"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Desc   string `json:"desc,omitempty"`
	Parent int32  `json:"parent"`
}

type pathJSON struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
}

type sevJSON struct {
	Metric int32     `json:"m"`
	Path   int32     `json:"p"`
	Vals   []float64 `json:"v"`
}

// Write serialises the profile as JSON.
func (p *Profile) Write(w io.Writer) error {
	out := profileJSON{Clock: p.Clock, LocNames: p.LocNames}
	for _, m := range p.Metrics {
		out.Metrics = append(out.Metrics, metricJSON{Name: m.Name, Desc: m.Desc, Parent: int32(m.Parent)})
	}
	for _, c := range p.Paths {
		out.Paths = append(out.Paths, pathJSON{Name: c.Name, Parent: int32(c.Parent)})
	}
	// Deterministic order: metric id, then path id.
	for m, row := range p.sev {
		for path, vals := range row {
			if vals != nil {
				out.Sev = append(out.Sev, sevJSON{Metric: int32(m), Path: int32(path), Vals: vals})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Read deserialises a profile written by Write.
func Read(r io.Reader) (*Profile, error) {
	var in profileJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("cube: decoding profile: %w", err)
	}
	p := New(in.Clock, in.LocNames)
	for _, m := range in.Metrics {
		if err := p.defineMetric(Metric{Name: m.Name, Desc: m.Desc, Parent: MetricID(m.Parent)}); err != nil {
			return nil, err
		}
	}
	for _, c := range in.Paths {
		if err := p.definePath(CallPath{Name: c.Name, Parent: PathID(c.Parent)}); err != nil {
			return nil, err
		}
	}
	for _, s := range in.Sev {
		if s.Metric < 0 || int(s.Metric) >= len(p.Metrics) || s.Path < 0 || int(s.Path) >= len(p.Paths) {
			return nil, fmt.Errorf("cube: severity references unknown metric/path")
		}
		if len(s.Vals) > p.NumLocs() {
			return nil, fmt.Errorf("cube: severity has %d values for %d locations", len(s.Vals), p.NumLocs())
		}
		// Set the cell directly rather than through Add, which skips
		// zeros: a cell whose values cancelled to zero is still present.
		// A repeated record accumulates, as it always has.
		row := p.sev[s.Metric]
		if int(s.Path) >= len(row) || row[s.Path] == nil {
			copy(p.cell(MetricID(s.Metric), PathID(s.Path)), s.Vals)
			continue
		}
		for l, v := range s.Vals {
			row[s.Path][l] += v
		}
	}
	return p, nil
}

// defineMetric appends a decoded metric.  Its parent must precede it,
// as AddMetric guarantees, so the metric tree has no cycles.
func (p *Profile) defineMetric(m Metric) error {
	id := MetricID(len(p.Metrics))
	if m.Parent < NoParent || m.Parent >= id {
		return fmt.Errorf("cube: metric %d has parent %d", id, m.Parent)
	}
	p.Metrics = append(p.Metrics, m)
	p.sev = append(p.sev, nil)
	p.metricByName[m.Name] = id
	return nil
}

// definePath appends a decoded call path.  Its parent must precede it,
// as Path guarantees, so PathString terminates.
func (p *Profile) definePath(c CallPath) error {
	id := PathID(len(p.Paths))
	if c.Parent < NoParent || c.Parent >= id {
		return fmt.Errorf("cube: call path %d has parent %d", id, c.Parent)
	}
	p.Paths = append(p.Paths, c)
	p.pathByKey[pathKey{c.Parent, c.Name}] = id
	return nil
}
