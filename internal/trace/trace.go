// Package trace reads and writes workload traces so instances can be
// generated once, stored, shared, and replayed — the workflow a cloud
// operator would use with real dispatch logs. Two formats are supported:
// a CSV with header "id,size,arrival,departure" (one item per row) and a
// JSON array of item objects. Both round-trip float64 values exactly
// (strconv 'g' with full precision).
package trace

import (
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dbp/internal/item"
	"dbp/internal/opt"
	"dbp/internal/packing"
)

// csvHeader is the required first row of the CSV format. Vector demands
// use additional size columns "size2", "size3", ... when present.
var csvHeader = []string{"id", "size", "arrival", "departure"}

// ReadFile loads a trace from a file, picking the format from the
// extension (.json for JSON, anything else CSV) and decompressing
// gzip-compressed traces (.csv.gz / .json.gz) transparently — large
// public cluster traces ship and commit compressed.
func ReadFile(path string) (item.List, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	name := path
	if strings.HasSuffix(name, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		defer zr.Close()
		r = zr
		name = strings.TrimSuffix(name, ".gz")
	}
	if strings.HasSuffix(name, ".json") {
		return readJSON(r)
	}
	return readCSV(r)
}

// WriteFile stores a trace, the mirror of ReadFile: format by extension,
// gzip-compressed when the path ends in .gz.
func WriteFile(path string, l item.List) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	var w io.Writer = f
	name := path
	var zw *gzip.Writer
	if strings.HasSuffix(name, ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
		name = strings.TrimSuffix(name, ".gz")
	}
	if strings.HasSuffix(name, ".json") {
		err = WriteJSON(w, l)
	} else {
		err = WriteCSV(w, l)
	}
	if err == nil && zw != nil {
		err = zw.Close()
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// WriteCSV writes the list in CSV format, items sorted by (arrival, id).
func WriteCSV(w io.Writer, l item.List) error {
	cw := csv.NewWriter(w)
	dim := 1
	for _, it := range l {
		if it.Dim() > dim {
			dim = it.Dim()
		}
	}
	header := append([]string(nil), csvHeader...)
	for d := 2; d <= dim; d++ {
		header = append(header, fmt.Sprintf("size%d", d))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, it := range l.SortedByArrival() {
		// The "size" column carries the first demand component; for 1-D
		// items that is the item size, for vector items the reader
		// recomputes the scalar Size as the max over all components.
		vec := it.SizeVec()
		row := []string{
			strconv.FormatInt(int64(it.ID), 10),
			strconv.FormatFloat(vec[0], 'g', -1, 64),
			strconv.FormatFloat(it.Arrival, 'g', -1, 64),
			strconv.FormatFloat(it.Departure, 'g', -1, 64),
		}
		for d := 2; d <= dim; d++ {
			v := 0.0
			if d <= len(vec) {
				v = vec[d-1]
			}
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// readCSV parses a CSV trace. The returned list is validated.
func readCSV(r io.Reader) (item.List, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty input")
	}
	head := rows[0]
	if len(head) < 4 || head[0] != "id" || head[1] != "size" || head[2] != "arrival" || head[3] != "departure" {
		return nil, fmt.Errorf("trace: bad header %v (want id,size,arrival,departure[,size2...])", head)
	}
	extraDims := len(head) - 4
	l := make(item.List, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != len(head) {
			return nil, fmt.Errorf("trace: row %d has %d fields, want %d", i+2, len(row), len(head))
		}
		id, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d id: %w", i+2, err)
		}
		var f [3]float64
		for j := 0; j < 3; j++ {
			f[j], err = strconv.ParseFloat(row[j+1], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d col %s: %w", i+2, head[j+1], err)
			}
		}
		it := item.Item{ID: item.ID(id), Size: f[0], Arrival: f[1], Departure: f[2]}
		if extraDims > 0 {
			it.Sizes = make([]float64, extraDims+1)
			it.Sizes[0] = f[0]
			maxc := f[0]
			for d := 0; d < extraDims; d++ {
				v, err := strconv.ParseFloat(row[4+d], 64)
				if err != nil {
					return nil, fmt.Errorf("trace: row %d col %s: %w", i+2, head[4+d], err)
				}
				it.Sizes[d+1] = v
				if v > maxc {
					maxc = v
				}
			}
			it.Size = maxc
		}
		l = append(l, it)
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return l, nil
}

// jsonItem is the JSON wire format of one item.
type jsonItem struct {
	ID        int64     `json:"id"`
	Size      float64   `json:"size"`
	Sizes     []float64 `json:"sizes,omitempty"`
	Arrival   float64   `json:"arrival"`
	Departure float64   `json:"departure"`
}

// WriteJSON writes the list as a JSON array, sorted by (arrival, id).
func WriteJSON(w io.Writer, l item.List) error {
	out := make([]jsonItem, len(l))
	for i, it := range l.SortedByArrival() {
		out[i] = jsonItem{ID: int64(it.ID), Size: it.Size, Sizes: it.Sizes, Arrival: it.Arrival, Departure: it.Departure}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// readJSON parses a JSON trace. The returned list is validated.
func readJSON(r io.Reader) (item.List, error) {
	var in []jsonItem
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	l := make(item.List, len(in))
	for i, ji := range in {
		l[i] = item.Item{ID: item.ID(ji.ID), Size: ji.Size, Sizes: ji.Sizes, Arrival: ji.Arrival, Departure: ji.Departure}
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return l, nil
}

// Stats summarizes a trace for CLI reports.
type Stats struct {
	N           int
	Mu          float64
	Span        float64
	Demand      float64 // Proposition 1's bound, per dimension at d >= 2
	PeakLoad    float64
	MinDuration float64
	MaxDuration float64
	MeanSize    float64
}

// Summarize computes trace statistics.
func Summarize(l item.List) Stats {
	s := Stats{
		N:           len(l),
		Mu:          l.Mu(),
		Span:        l.Span(),
		Demand:      opt.DemandLowerBound(l),
		PeakLoad:    l.MaxConcurrentLoad(),
		MinDuration: l.MinDuration(),
		MaxDuration: l.MaxDuration(),
	}
	if len(l) > 0 {
		s.MeanSize = l.TotalSize() / float64(len(l))
	}
	return s
}

// String renders the stats for CLI output.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d mu=%.4g span=%.6g demand=%.6g peak-load=%.4g dur=[%.4g, %.4g] mean-size=%.4g",
		s.N, s.Mu, s.Span, s.Demand, s.PeakLoad, s.MinDuration, s.MaxDuration, s.MeanSize)
}

// WriteAssignment exports the outcome of a packing run as CSV with
// header "id,bin,size,arrival,departure": the per-job server assignment
// downstream tooling (plotters, accounting) consumes.
func WriteAssignment(w io.Writer, res *packing.Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "bin", "size", "arrival", "departure"}); err != nil {
		return err
	}
	// Arrival steps come in (Arrival, ID) order, SortedByArrival's.
	for _, s := range res.Items.Steps(false) {
		if s.Kind != item.Arrive {
			continue
		}
		it := res.Items[s.Pos]
		row := []string{
			strconv.FormatInt(int64(it.ID), 10),
			strconv.Itoa(res.Server[s.Pos]),
			strconv.FormatFloat(it.Size, 'g', -1, 64),
			strconv.FormatFloat(it.Arrival, 'g', -1, 64),
			strconv.FormatFloat(it.Departure, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadAssignment parses an assignment CSV (as written by
// WriteAssignment): it returns the instance and the item -> bin map.
func ReadAssignment(r io.Reader) (item.List, map[item.ID]int, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	if len(rows) == 0 || len(rows[0]) != 5 ||
		rows[0][0] != "id" || rows[0][1] != "bin" || rows[0][2] != "size" ||
		rows[0][3] != "arrival" || rows[0][4] != "departure" {
		return nil, nil, fmt.Errorf("trace: bad assignment header (want id,bin,size,arrival,departure)")
	}
	l := make(item.List, 0, len(rows)-1)
	assign := make(map[item.ID]int, len(rows)-1)
	for i, row := range rows[1:] {
		id, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: row %d id: %w", i+2, err)
		}
		bin, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, nil, fmt.Errorf("trace: row %d bin: %w", i+2, err)
		}
		var f [3]float64
		for j := 0; j < 3; j++ {
			f[j], err = strconv.ParseFloat(row[j+2], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("trace: row %d col %d: %w", i+2, j+2, err)
			}
		}
		l = append(l, item.Item{ID: item.ID(id), Size: f[0], Arrival: f[1], Departure: f[2]})
		assign[item.ID(id)] = bin
	}
	if err := l.Validate(); err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	return l, assign, nil
}
