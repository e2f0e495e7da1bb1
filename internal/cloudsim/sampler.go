package cloudsim

// The fleet sampler: the time-resolved view behind the paper's Fig. 4.
// Every time a server closes an accounting interval (its resident set
// was constant over [lastUpdate, now) and its progress/energy just
// integrated), the sampler learns that server's power draw and occupancy
// for the closed interval and appends one fleet sample — the triggering
// server's draw plus fleet totals: watts over all hosting servers,
// active servers, queue depth, down servers, running VMs, and the
// cumulative busy energy so far. Samples land in a bounded ring: when
// the buffer fills, every other sample is dropped and the recording
// stride doubles, so an arbitrarily long run degrades resolution
// deterministically instead of growing memory without bound.
//
// Energy bookkeeping mirrors the simulator's exactly: CumEnergy
// accumulates the same power×dt products advance() adds to per-server
// energy, and Run feeds the end-of-run idle billing through addIdle, so
// BusyEnergy + IdleEnergy reconciles with Metrics.Energy to within float
// summation order (pinned by TestSamplerEnergyIntegral).
//
// Like the audit and the tracer, the sampler is observation-only and
// free when off: every hook is gated on one nil check, and Config.
// Sampler defaults to nil. RunReference ignores the field.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"

	"pacevm/internal/obs"
	"pacevm/internal/units"
)

// FleetSample is one row of the fleet time series.
type FleetSample struct {
	// At is the simulated instant the triggering interval closed.
	At units.Seconds
	// Server is the server whose interval closed; ServerWatts/ServerVMs
	// are its draw and occupancy over that interval.
	Server      int
	ServerWatts units.Watts
	ServerVMs   int
	// FleetWatts sums the model power draw of every hosting server as
	// of its most recently closed interval (empty powered-on servers
	// draw the idle floor, billed separately at end of run).
	FleetWatts units.Watts
	// ActiveServers counts servers hosting at least one VM; QueueDepth
	// is the admission queue; DownServers counts crashed servers;
	// RunningVMs sums occupancy over the fleet.
	ActiveServers int
	QueueDepth    int
	DownServers   int
	RunningVMs    int
	// CumEnergy is the busy-interval energy integrated so far (idle
	// billing lands at end of run; see FleetSampler.IdleEnergy).
	CumEnergy units.Joules
}

// defaultSamplerCap bounds the ring when the caller passes no capacity.
const defaultSamplerCap = 4096

// FleetSampler collects FleetSamples for one run. Attach with
// Config.Sampler; reuse across runs is safe (Run resets it). Safe for
// concurrent readers (the dashboard scrapes Series while the simulation
// runs).
type FleetSampler struct {
	mu       sync.Mutex
	capacity int
	stride   int // record every stride-th interval close
	tick     int
	samples  []FleetSample

	// Per-server state as of the last closed interval.
	watts []units.Watts
	vms   []int

	fleetWatts units.Watts
	runningVMs int
	cumEnergy  units.Joules
	idleEnergy units.Joules
}

// NewFleetSampler returns a sampler whose ring holds at most capacity
// samples (<= 0 selects the default of 4096; the floor is 16 so the
// downsampling halving always has room to work).
func NewFleetSampler(capacity int) *FleetSampler {
	if capacity <= 0 {
		capacity = defaultSamplerCap
	}
	if capacity < 16 {
		capacity = 16
	}
	return &FleetSampler{capacity: capacity, stride: 1}
}

// reset prepares the sampler for a run over the given fleet size.
func (fs *FleetSampler) reset(servers int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stride = 1
	fs.tick = 0
	fs.samples = fs.samples[:0]
	if cap(fs.watts) < servers {
		fs.watts = make([]units.Watts, servers)
		fs.vms = make([]int, servers)
	} else {
		fs.watts = fs.watts[:servers]
		fs.vms = fs.vms[:servers]
		for i := range fs.watts {
			fs.watts[i] = 0
			fs.vms[i] = 0
		}
	}
	fs.fleetWatts = 0
	fs.runningVMs = 0
	fs.cumEnergy = 0
	fs.idleEnergy = 0
}

// interval records one closed accounting interval: server drew power
// hosting nvms VMs for dt seconds ending at 'at'. active, down and
// qdepth are the simulator's instantaneous fleet state: occupied and
// down servers, and queued requests.
func (fs *FleetSampler) interval(at units.Seconds, server int, power units.Watts, nvms int, dt units.Seconds, active, down, qdepth int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cumEnergy += power.Times(dt)
	fs.fleetWatts += power - fs.watts[server]
	fs.watts[server] = power
	fs.runningVMs += nvms - fs.vms[server]
	fs.vms[server] = nvms
	if fs.tick%fs.stride == 0 {
		fs.push(FleetSample{
			At:            at,
			Server:        server,
			ServerWatts:   power,
			ServerVMs:     nvms,
			FleetWatts:    fs.fleetWatts,
			ActiveServers: active,
			QueueDepth:    qdepth,
			DownServers:   down,
			RunningVMs:    fs.runningVMs,
			CumEnergy:     fs.cumEnergy,
		})
	}
	fs.tick++
}

// push appends a sample, halving the ring's resolution when full: the
// odd-indexed samples are dropped and the stride doubles, so the series
// stays bounded and evenly thinned. Called with the mutex held.
func (fs *FleetSampler) push(s FleetSample) {
	if len(fs.samples) >= fs.capacity {
		kept := fs.samples[:0]
		for i := 0; i < len(fs.samples); i += 2 {
			kept = append(kept, fs.samples[i])
		}
		fs.samples = kept
		fs.stride *= 2
	}
	fs.samples = append(fs.samples, s)
}

// serverIdle zeroes a server's contribution when it stops hosting
// (completion drained it, the consolidator emptied it, or it crashed).
func (fs *FleetSampler) serverIdle(server int) {
	fs.mu.Lock()
	fs.fleetWatts -= fs.watts[server]
	fs.watts[server] = 0
	fs.runningVMs -= fs.vms[server]
	fs.vms[server] = 0
	fs.mu.Unlock()
}

// addIdle accounts end-of-run idle billing (and the downtime carve-out
// already applied by the caller), mirroring the fold in Run.
func (fs *FleetSampler) addIdle(e units.Joules) {
	fs.mu.Lock()
	fs.idleEnergy += e
	fs.mu.Unlock()
}

// Len returns the number of retained samples.
func (fs *FleetSampler) Len() int {
	if fs == nil {
		return 0
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.samples)
}

// Stride returns the current downsampling stride: 1 until the ring
// first fills, then doubling with each halving.
func (fs *FleetSampler) Stride() int {
	if fs == nil {
		return 0
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stride
}

// Samples returns a copy of the retained samples in time order.
func (fs *FleetSampler) Samples() []FleetSample {
	if fs == nil {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]FleetSample(nil), fs.samples...)
}

// BusyEnergy is the integrated busy-interval energy; IdleEnergy the
// end-of-run idle billing; their sum reconciles with Metrics.Energy to
// within float summation order.
func (fs *FleetSampler) BusyEnergy() units.Joules {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.cumEnergy
}

// IdleEnergy returns the idle billing fed through addIdle.
func (fs *FleetSampler) IdleEnergy() units.Joules {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.idleEnergy
}

// seriesCSVHeader is the exported column set, stable for downstream
// tooling (pacevm-paperfigs -power-series; documented in README).
const seriesCSVHeader = "t_s,server,server_watts,server_vms,fleet_watts,active_servers,queue_depth,down_servers,running_vms,cum_energy_j"

// WriteCSV exports the retained samples as CSV, floats in shortest
// round-trip form so identical runs export identical bytes.
func (fs *FleetSampler) WriteCSV(w io.Writer) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, seriesCSVHeader); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range fs.samples {
		s := &fs.samples[i]
		if _, err := fmt.Fprintf(bw, "%s,%d,%s,%d,%s,%d,%d,%d,%d,%s\n",
			g(float64(s.At)), s.Server, g(float64(s.ServerWatts)), s.ServerVMs,
			g(float64(s.FleetWatts)), s.ActiveServers, s.QueueDepth,
			s.DownServers, s.RunningVMs, g(float64(s.CumEnergy))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Series exposes the retained samples as dashboard series (fleet watts,
// queue depth, running VMs) for obs.DebugServer.AddSeries.
func (fs *FleetSampler) Series() []obs.Series {
	if fs == nil {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	watts := make([]obs.SeriesPoint, len(fs.samples))
	depth := make([]obs.SeriesPoint, len(fs.samples))
	running := make([]obs.SeriesPoint, len(fs.samples))
	for i := range fs.samples {
		s := &fs.samples[i]
		t := float64(s.At)
		watts[i] = obs.SeriesPoint{T: t, V: float64(s.FleetWatts)}
		depth[i] = obs.SeriesPoint{T: t, V: float64(s.QueueDepth)}
		running[i] = obs.SeriesPoint{T: t, V: float64(s.RunningVMs)}
	}
	return []obs.Series{
		{Name: "fleet power", Unit: "W", Points: watts},
		{Name: "queue depth", Unit: "", Points: depth},
		{Name: "running VMs", Unit: "", Points: running},
	}
}
