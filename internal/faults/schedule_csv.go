package faults

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"pacevm/internal/units"
)

// The on-disk schedule format follows the repository's model-database
// convention: plain comma-separated values with a fixed header, one row
// per outage, '#' comment lines allowed. Times are seconds of simulated
// time.
//
//	server,down_s,up_s
//	0,3600,4200
//	7,5400,5460

var scheduleHeader = []string{"server", "down_s", "up_s"}

// ReadSchedule parses a schedule in the format above.
// Errors carry the file line of the offending row. The returned schedule
// is syntactically sound (finite times, Up > Down, non-negative server
// ids); fleet-size bounds and per-server overlap are checked by
// Schedule.Validate, which needs the fleet size.
func ReadSchedule(r io.Reader) (Schedule, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(scheduleHeader)
	cr.Comment = '#'

	header, err := cr.Read()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("faults: empty schedule file (want %v header)", scheduleHeader)
		}
		return nil, fmt.Errorf("faults: reading schedule header: %w", err)
	}
	if !sameRow(header, scheduleHeader) {
		line, _ := cr.FieldPos(0)
		return nil, fmt.Errorf("faults: schedule line %d: unexpected header %v, want %v", line, header, scheduleHeader)
	}

	var out Schedule
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("faults: parsing schedule: %w", err)
		}
		line, _ := cr.FieldPos(0)
		e, err := parseScheduleRow(row)
		if err != nil {
			return nil, fmt.Errorf("faults: schedule line %d: %w", line, err)
		}
		out = append(out, e)
	}
	return out, nil
}

func parseScheduleRow(row []string) (Event, error) {
	var e Event
	srv, err := strconv.Atoi(row[0])
	if err != nil {
		return e, fmt.Errorf("server: %w", err)
	}
	if srv < 0 {
		return e, fmt.Errorf("server %d is negative", srv)
	}
	down, err := parseFiniteSeconds("down_s", row[1])
	if err != nil {
		return e, err
	}
	up, err := parseFiniteSeconds("up_s", row[2])
	if err != nil {
		return e, err
	}
	if down < 0 {
		return e, fmt.Errorf("down_s %v is negative", down)
	}
	if up <= down {
		return e, fmt.Errorf("up_s %v must exceed down_s %v", up, down)
	}
	e.Server, e.Down, e.Up = srv, down, up
	return e, nil
}

func parseFiniteSeconds(field, s string) (units.Seconds, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", field, err)
	}
	if !finite(f) {
		return 0, fmt.Errorf("%s: non-finite value %q", field, s)
	}
	return units.Seconds(f), nil
}

func sameRow(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
