package trace

import (
	"fmt"

	"pacevm/internal/rng"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// StreamConfig parameterizes the streaming synthetic workload generator.
// Where Generate/Prepare build a whole SWF trace and preprocess it — the
// fidelity path used by the evaluation — Stream emits simulator-ready
// requests one at a time in O(1), which is what the large-simulation
// benchmarks need: a 100k-request workload should cost a slice of
// requests, not an intermediate SWF trace plus cleaning passes.
type StreamConfig struct {
	Seed uint64
	// MeanInterarrival is the mean gap between workflow bursts; burst
	// gaps are exponential, so arrivals are bursty-Poisson like the EGEE
	// submission logs.
	MeanInterarrival units.Seconds
	// RuntimeMu and RuntimeSigma parameterize the lognormal nominal-time
	// distribution, as in GenConfig.
	RuntimeMu, RuntimeSigma float64
	// QoSFactor is the per-class maximum response time as a multiple of
	// nominal time (see PrepConfig.QoSFactor).
	QoSFactor [workload.NumClasses]float64
}

// DefaultStreamConfig mirrors the EGEE-like shape of DefaultGenConfig
// with the evaluation's QoS factors.
func DefaultStreamConfig(seed uint64) StreamConfig {
	return StreamConfig{
		Seed:             seed,
		MeanInterarrival: 60,
		RuntimeMu:        6.2, // median ≈ 490 s
		RuntimeSigma:     0.9,
		QoSFactor:        DefaultPrepConfig(seed).QoSFactor,
	}
}

func (c StreamConfig) validate() error {
	if c.MeanInterarrival <= 0 {
		return fmt.Errorf("trace: MeanInterarrival must be positive")
	}
	if c.RuntimeSigma < 0 {
		return fmt.Errorf("trace: negative RuntimeSigma")
	}
	for _, cl := range workload.Classes {
		if c.QoSFactor[cl] < 0 {
			return fmt.Errorf("trace: negative QoS factor for %v", cl)
		}
	}
	return nil
}

// Stream generates an endless EGEE-shaped request sequence: workflow
// bursts of 1–5 requests sharing a profile and runtime scale, burst
// starts strictly monotone with exponential gaps, each request sized
// 1–4 VMs. The sequence is fully determined by the seed.
type Stream struct {
	cfg      StreamConfig
	arrivals *rng.Stream
	shape    *rng.Stream

	nextID     int
	burstStart units.Seconds
	burstLeft  int
	offset     units.Seconds
	class      workload.Class
	runtime    float64 // burst-shared runtime scale, seconds
}

// NewStream validates the configuration and positions the stream at the
// first request.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := rng.NewSource(cfg.Seed)
	return &Stream{
		cfg:      cfg,
		arrivals: src.Stream("trace.stream.arrivals"),
		shape:    src.Stream("trace.stream.shape"),
	}, nil
}

// Next returns the stream's next request. Amortized O(1), no
// allocations.
func (s *Stream) Next() Request {
	if s.burstLeft == 0 {
		s.burstStart += units.Seconds(s.arrivals.Exp(float64(s.cfg.MeanInterarrival)))
		s.burstLeft = s.arrivals.IntBetween(1, 5)
		s.offset = 0
		s.class = workload.Classes[s.shape.Intn(int(workload.NumClasses))]
		s.runtime = s.shape.LogNormal(s.cfg.RuntimeMu, s.cfg.RuntimeSigma)
		if s.runtime < 30 {
			s.runtime = 30
		}
	}
	s.burstLeft--
	s.nextID++
	nominal := units.Seconds(s.runtime * s.shape.Uniform(0.9, 1.1))
	if nominal < 30 {
		nominal = 30
	}
	r := Request{
		ID:          s.nextID,
		Submit:      s.burstStart + s.offset,
		Class:       s.class,
		VMs:         s.arrivals.IntBetween(1, MaxVMs),
		NominalTime: nominal,
		MaxResponse: nominal * units.Seconds(s.cfg.QoSFactor[s.class]),
	}
	s.offset += units.Seconds(1 + s.arrivals.Intn(20))
	return r
}

// Take returns the stream's next n requests.
func (s *Stream) Take(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}
