package faults

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadSchedule checks that arbitrary input never panics the parser
// and that any schedule it accepts survives a write/parse round trip.
func FuzzReadSchedule(f *testing.F) {
	f.Add("server,down_s,up_s\n0,100,200\n1,50,75\n")
	f.Add("server,down_s,up_s\n# comment\n3,1e3,2e3\n")
	f.Add("")
	f.Add("server,down_s,up_s\n")
	f.Add("server,down_s,up_s\n0,NaN,2\n")
	f.Add("server,down_s,up_s\n0,1\n")
	f.Add("x,y\n1,2\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ReadSchedule(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Whatever the parser accepts must be internally sound enough to
		// round-trip exactly.
		var buf bytes.Buffer
		if err := writeSchedule(&buf, s); err != nil {
			t.Fatalf("writeSchedule failed on accepted schedule: %v", err)
		}
		back, err := ReadSchedule(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip changed the schedule: %v vs %v", s, back)
		}
		// Validation of accepted events must not panic either; the fleet
		// size is a free parameter, so probe a couple.
		for _, servers := range []int{1, 1 << 20} {
			_ = s.Validate(servers)
		}
	})
}
