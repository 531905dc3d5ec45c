package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvHeader is the column layout of the on-disk dataset, mirroring the
// fields of the paper's published preemption data.
var csvHeader = []string{"vm_type", "zone", "time_of_day", "workload", "lifetime_hours"}

// WriteCSV encodes the dataset with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	for i, r := range d.Records {
		row := []string{
			string(r.Scenario.Type),
			string(r.Scenario.Zone),
			string(r.Scenario.TimeOfDay),
			string(r.Scenario.Workload),
			strconv.FormatFloat(r.Lifetime, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing CSV record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a dataset written by WriteCSV. It validates the header and
// every row.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("trace: unexpected CSV header %q, want %q", header[i], h)
		}
	}
	var ds Dataset
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV line %d: %w", line, err)
		}
		lifetime, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: bad lifetime %q: %w", line, row[4], err)
		}
		// Written as a positive range test so NaN (which ParseFloat accepts)
		// is rejected too.
		if !(lifetime >= 0 && lifetime <= Deadline+1e-9) {
			return nil, fmt.Errorf("trace: CSV line %d: lifetime %v outside [0, %v]", line, lifetime, Deadline)
		}
		ds.Records = append(ds.Records, Record{
			Scenario: Scenario{
				Type:      VMType(row[0]),
				Zone:      Zone(row[1]),
				TimeOfDay: TimeOfDay(row[2]),
				Workload:  Workload(row[3]),
			},
			Lifetime: lifetime,
		})
	}
	return &ds, nil
}
