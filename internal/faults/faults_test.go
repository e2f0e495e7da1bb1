package faults

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pacevm/internal/units"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 7, Servers: 16, MTBF: 5000, MTTR: 300, Horizon: 50000}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatalf("expected some faults over %v with MTBF %v", cfg.Horizon, cfg.MTBF)
	}
	if err := a.Validate(cfg.Servers); err != nil {
		t.Fatalf("generated schedule fails its own validation: %v", err)
	}
	// Chronological order is part of the contract.
	for i := 1; i < len(a); i++ {
		if a[i].Down < a[i-1].Down {
			t.Fatalf("schedule not chronological at %d: %v after %v", i, a[i], a[i-1])
		}
	}
}

// Growing the fleet must not reshuffle the outages of existing servers:
// every server draws from its own named substream.
func TestGeneratePerServerStreams(t *testing.T) {
	small, err := Generate(GenConfig{Seed: 3, Servers: 4, MTBF: 2000, MTTR: 100, Horizon: 20000})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Generate(GenConfig{Seed: 3, Servers: 8, MTBF: 2000, MTTR: 100, Horizon: 20000})
	if err != nil {
		t.Fatal(err)
	}
	filter := func(s Schedule, below int) Schedule {
		var out Schedule
		for _, e := range s {
			if e.Server < below {
				out = append(out, e)
			}
		}
		return out
	}
	if got, want := filter(large, 4), filter(small, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("growing the fleet changed existing servers' outages:\nsmall %v\nlarge %v", want, got)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	good := GenConfig{Seed: 1, Servers: 2, MTBF: 100, MTTR: 10, Horizon: 1000}
	cases := []struct {
		name string
		mut  func(*GenConfig)
	}{
		{"no servers", func(c *GenConfig) { c.Servers = 0 }},
		{"zero MTBF", func(c *GenConfig) { c.MTBF = 0 }},
		{"negative MTTR", func(c *GenConfig) { c.MTTR = -1 }},
		{"NaN MTBF", func(c *GenConfig) { c.MTBF = units.Seconds(math.NaN()) }},
		{"zero horizon", func(c *GenConfig) { c.Horizon = 0 }},
		{"inf horizon", func(c *GenConfig) { c.Horizon = units.Seconds(math.Inf(1)) }},
	}
	for _, c := range cases {
		cfg := good
		c.mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate accepted %+v", c.name, cfg)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name    string
		s       Schedule
		servers int
		wantErr string
	}{
		{"empty ok", nil, 4, ""},
		{"good", Schedule{{0, 10, 20}, {1, 5, 50}, {0, 20, 30}}, 2, ""},
		{"touching ok", Schedule{{0, 10, 20}, {0, 20, 30}}, 1, ""},
		{"server out of range", Schedule{{5, 1, 2}}, 4, "names server 5"},
		{"negative server", Schedule{{-1, 1, 2}}, 4, "names server -1"},
		{"negative down", Schedule{{0, -1, 2}}, 1, "negative time"},
		{"up before down", Schedule{{0, 5, 4}}, 1, "not after its crash"},
		{"up equals down", Schedule{{0, 5, 5}}, 1, "not after its crash"},
		{"NaN", Schedule{{0, units.Seconds(math.NaN()), 5}}, 1, "non-finite"},
		{"overlap", Schedule{{0, 10, 30}, {0, 20, 40}}, 1, "overlap"},
	}
	for _, c := range cases {
		err := c.s.Validate(c.servers)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got error %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	s, err := Generate(GenConfig{Seed: 11, Servers: 6, MTBF: 1000, MTTR: 50, Horizon: 9000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("round trip changed the schedule:\nwrote %v\nread  %v", s, back)
	}
}

func TestReadScheduleErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "empty schedule file"},
		{"bad header", "a,b,c\n", "unexpected header"},
		{"bad server", "server,down_s,up_s\nx,1,2\n", "line 2: server"},
		{"negative server", "server,down_s,up_s\n-3,1,2\n", "line 2: server -3 is negative"},
		{"bad float", "server,down_s,up_s\n0,abc,2\n", "line 2: down_s"},
		{"NaN", "server,down_s,up_s\n0,NaN,2\n", "line 2: down_s: non-finite"},
		{"inf", "server,down_s,up_s\n0,1,+Inf\n", "line 2: up_s: non-finite"},
		{"negative down", "server,down_s,up_s\n0,-4,2\n", "is negative"},
		{"up before down", "server,down_s,up_s\n0,9,3\n", "must exceed down_s"},
		{"line numbers skip comments", "server,down_s,up_s\n# a comment\n0,1,2\n0,5,1\n", "line 4: up_s"},
		{"wrong field count", "server,down_s,up_s\n0,1\n", "wrong number of fields"},
	}
	for _, c := range cases {
		_, err := ReadSchedule(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got error %v, want containing %q", c.name, err, c.wantErr)
		}
	}
	// Comments and blank-free files parse cleanly.
	s, err := ReadSchedule(strings.NewReader("server,down_s,up_s\n# outage drill\n2,100,250\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{{Server: 2, Down: 100, Up: 250}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed %v, want %v", s, want)
	}
}

func TestCheckpointPolicies(t *testing.T) {
	r := Restart{}
	if got := r.Surviving(1234); got != 0 {
		t.Errorf("Restart.Surviving = %v, want 0", got)
	}
	if r.Name() != "restart" {
		t.Errorf("Restart.Name = %q", r.Name())
	}
	p := Periodic{Interval: 100}
	cases := []struct{ done, want units.Seconds }{
		{0, 0}, {99, 0}, {100, 100}, {101, 100}, {250, 200}, {300, 300},
	}
	for _, c := range cases {
		if got := p.Surviving(c.done); got != c.want {
			t.Errorf("Periodic{100}.Surviving(%v) = %v, want %v", c.done, got, c.want)
		}
	}
	if got := (Periodic{Interval: 0}).Surviving(500); got != 0 {
		t.Errorf("degenerate interval survived %v, want 0", got)
	}
	if got := p.Surviving(-5); got != 0 {
		t.Errorf("negative done survived %v, want 0", got)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, in := range []string{"", "restart", "none", "RESTART"} {
		p, err := ParsePolicy(in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", in, err)
		}
		if _, ok := p.(Restart); !ok {
			t.Fatalf("ParsePolicy(%q) = %T, want Restart", in, p)
		}
	}
	for _, c := range []struct {
		in   string
		want units.Seconds
	}{{"periodic:600", 600}, {"periodic:300", 300}, {"periodic:0.5", 0.5}} {
		p, err := ParsePolicy(c.in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c.in, err)
		}
		if per, ok := p.(Periodic); !ok || per.Interval != c.want {
			t.Fatalf("ParsePolicy(%q) = %#v", c.in, p)
		}
	}
	for _, in := range []string{"periodic:0", "periodic:-5", "periodic:NaN", "periodic:Inf", "periodic:x", "periodic:", "hourly", "never"} {
		if _, err := ParsePolicy(in); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", in)
		}
	}
}

// writeSchedule writes the schedule in the plain-text form ReadSchedule
// parses, for the round-trip tests. The schedule is written as-is; call
// Sort first for the conventional chronological order.
func writeSchedule(w io.Writer, s Schedule) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(scheduleHeader); err != nil {
		return fmt.Errorf("faults: writing schedule header: %w", err)
	}
	for i, e := range s {
		row := []string{
			strconv.Itoa(e.Server),
			strconv.FormatFloat(float64(e.Down), 'g', -1, 64),
			strconv.FormatFloat(float64(e.Up), 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("faults: writing schedule event %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
