package device

// Fleet profiles: parameterized device-population archetypes for the
// discrete-event fleet simulator (internal/fleet). The two calibrated Jetson
// boards model a lab testbed; a million-client round needs the long tail —
// flagship phones, budget phones, battery-starved embedded nodes — each with
// its own compute rate, power curve, link bandwidth and availability. A
// FleetClass captures exactly that surface, and a Population samples a
// concrete per-client spec as a *pure function* of (seed, index): no
// per-client storage, so a simulated fleet of any size costs O(classes)
// memory.

import (
	"fmt"
	"sort"
	"strconv"

	"bofl/internal/faultinject"
)

// FleetClass is one device archetype in a heterogeneous fleet.
type FleetClass struct {
	// Name labels the class in stats and the round ledger.
	Name string
	// SecPerJob is the class's nominal per-minibatch training latency in
	// seconds (the fleet analogue of Device.Latency at a fixed DVFS point).
	SecPerJob float64
	// JitterFrac spreads per-client compute speed uniformly over
	// [1-J, 1+J]·SecPerJob — silicon lottery plus background load.
	JitterFrac float64
	// PowerBusyW is the board power while training, Watts.
	PowerBusyW float64
	// PowerIdleW is the board power while waiting on the radio, Watts.
	PowerIdleW float64
	// UplinkBps and DownlinkBps are sustained link rates in bytes/second.
	UplinkBps   float64
	DownlinkBps float64
	// Availability is the probability the device is reachable and willing
	// when a round begins (charging, on wifi, idle).
	Availability float64
	// Share is the class's relative population weight; shares are
	// normalized across the population, so any positive scale works.
	Share float64
}

func (c FleetClass) validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("device: fleet class needs a name")
	case c.SecPerJob <= 0:
		return fmt.Errorf("device: fleet class %s: SecPerJob %v must be > 0", c.Name, c.SecPerJob)
	case c.JitterFrac < 0 || c.JitterFrac >= 1:
		return fmt.Errorf("device: fleet class %s: JitterFrac %v must be in [0, 1)", c.Name, c.JitterFrac)
	case c.PowerBusyW <= 0 || c.PowerIdleW < 0 || c.PowerIdleW > c.PowerBusyW:
		return fmt.Errorf("device: fleet class %s: powers busy=%v idle=%v need busy > 0 and 0 ≤ idle ≤ busy", c.Name, c.PowerBusyW, c.PowerIdleW)
	case c.UplinkBps <= 0 || c.DownlinkBps <= 0:
		return fmt.Errorf("device: fleet class %s: link rates up=%v down=%v must be > 0", c.Name, c.UplinkBps, c.DownlinkBps)
	case c.Availability <= 0 || c.Availability > 1:
		return fmt.Errorf("device: fleet class %s: Availability %v must be in (0, 1]", c.Name, c.Availability)
	case c.Share <= 0:
		return fmt.Errorf("device: fleet class %s: Share %v must be > 0", c.Name, c.Share)
	}
	return nil
}

// BoardClass derives a FleetClass from a calibrated Device model running the
// given workload at its maximum DVFS configuration: SecPerJob from the
// latency model, PowerBusyW from energy/latency. Link, availability and share
// parameters describe the deployment, not the silicon, so the caller supplies
// them.
func BoardClass(d *Device, w Workload, uplinkBps, downlinkBps, availability, share float64) (FleetClass, error) {
	xmax := d.Space().Max()
	lat, energy, err := d.Perf(w, xmax)
	if err != nil {
		return FleetClass{}, err
	}
	return FleetClass{
		Name:         d.Name(),
		SecPerJob:    lat,
		JitterFrac:   0.05, // lab boards: thermal spread only
		PowerBusyW:   energy / lat,
		PowerIdleW:   0.2 * energy / lat,
		UplinkBps:    uplinkBps,
		DownlinkBps:  downlinkBps,
		Availability: availability,
		Share:        share,
	}, nil
}

// StandardFleetClasses is the default heterogeneous population: the two
// calibrated Jetson boards (wired, near-always available, a thin slice) plus
// three synthetic mobile archetypes covering the BouquetFL-style long tail.
// Workload w picks which calibration anchors the board classes.
func StandardFleetClasses(w Workload) ([]FleetClass, error) {
	agx, err := BoardClass(JetsonAGX(), w, 12.5e6, 50e6, 0.99, 2)
	if err != nil {
		return nil, err
	}
	tx2, err := BoardClass(JetsonTX2(), w, 12.5e6, 50e6, 0.99, 3)
	if err != nil {
		return nil, err
	}
	return []FleetClass{
		agx,
		tx2,
		{
			Name: "phone-flagship", SecPerJob: 0.35, JitterFrac: 0.15,
			PowerBusyW: 6.0, PowerIdleW: 1.2,
			UplinkBps: 2.5e6, DownlinkBps: 7.5e6,
			Availability: 0.90, Share: 25,
		},
		{
			Name: "phone-budget", SecPerJob: 0.90, JitterFrac: 0.25,
			PowerBusyW: 4.0, PowerIdleW: 0.8,
			UplinkBps: 0.6e6, DownlinkBps: 2.5e6,
			Availability: 0.75, Share: 55,
		},
		{
			Name: "embedded-sensor", SecPerJob: 2.50, JitterFrac: 0.20,
			PowerBusyW: 2.5, PowerIdleW: 0.3,
			UplinkBps: 0.12e6, DownlinkBps: 0.5e6,
			Availability: 0.60, Share: 15,
		},
	}, nil
}

// ClientSpec is one concrete simulated client: its class plus the per-client
// jittered parameters. Specs are recomputed on demand, never stored.
type ClientSpec struct {
	Class        *FleetClass
	SecPerJob    float64
	PowerBusyW   float64
	PowerIdleW   float64
	UplinkBps    float64
	DownlinkBps  float64
	Availability float64
}

// Population samples client specs from a class mix, deterministically per
// (seed, index). Read-only after construction, so safe for concurrent use.
type Population struct {
	classes []FleetClass
	cum     []float64 // cumulative normalized shares, cum[len-1] == 1
	seed    int64
	mid     faultinject.FleetSeedMid // cached hash prefix of (seed, fleet layer)
}

// NewPopulation validates the class mix and fixes the sampling seed. The same
// (seed, classes) always yields the identical population, client by client.
func NewPopulation(seed int64, classes []FleetClass) (*Population, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("device: population needs at least one fleet class")
	}
	var total float64
	for _, c := range classes {
		if err := c.validate(); err != nil {
			return nil, err
		}
		total += c.Share
	}
	p := &Population{
		classes: append([]FleetClass(nil), classes...),
		cum:     make([]float64, len(classes)),
		seed:    seed,
		mid:     faultinject.NewFleetSeedMid(seed),
	}
	acc := 0.0
	for i, c := range p.classes {
		acc += c.Share / total
		p.cum[i] = acc
	}
	p.cum[len(p.cum)-1] = 1 // close rounding gaps at the top
	return p, nil
}

// Classes returns the population's class mix (shared slice; do not mutate).
func (p *Population) Classes() []FleetClass { return p.classes }

// Seed returns the sampling seed.
func (p *Population) Seed() int64 { return p.seed }

// Per-client draw attempts within the LayerFleet/round-0 hash stream. The
// fleet engine's per-round draws (availability, chaos) use round ≥ 1 points
// and never collide with these.
const (
	drawClass = iota
	drawSpeed
	drawPower
)

// ClientID formats the canonical fault-plane client id for fleet index i:
// "f" followed by i in decimal. The id is built in a stack buffer, so the
// returned string is its only allocation.
func ClientID(i int) string {
	var buf [24]byte // 'f', a sign and up to 19 digits
	return string(strconv.AppendInt(append(buf[:0], 'f'), int64(i), 10))
}

// Client samples the spec for client index i — a pure function of
// (population seed, i) via the fault plane's order-independent hash, so a
// billion-client fleet stores nothing per client.
func (p *Population) Client(i int) ClientSpec {
	// The cached seed midstate plus one digits absorption covers all three
	// draws; each is bit-identical to the Point{Client: ClientID(i)} form and
	// allocation-free.
	cm := p.mid.Client(i)
	pick := cm.Unit(0, drawClass)
	k := sort.SearchFloat64s(p.cum, pick)
	if k == len(p.cum) { // pick == 1.0 edge
		k = len(p.cum) - 1
	}
	c := &p.classes[k]
	speed := cm.Unit(0, drawSpeed)
	power := cm.Unit(0, drawPower)
	// Uniform in [1-J, 1+J]; a slow draw also runs slightly hot.
	speedScale := 1 + c.JitterFrac*(2*speed-1)
	powerScale := 1 + 0.5*c.JitterFrac*(2*power-1)
	return ClientSpec{
		Class:        c,
		SecPerJob:    c.SecPerJob * speedScale,
		PowerBusyW:   c.PowerBusyW * powerScale,
		PowerIdleW:   c.PowerIdleW,
		UplinkBps:    c.UplinkBps,
		DownlinkBps:  c.DownlinkBps,
		Availability: c.Availability,
	}
}

// SlowestSecPerJob bounds the per-job latency any client of the population
// can draw — the anchor for deriving round deadlines without scanning
// clients.
func (p *Population) SlowestSecPerJob() float64 {
	worst := 0.0
	for _, c := range p.classes {
		if s := c.SecPerJob * (1 + c.JitterFrac); s > worst {
			worst = s
		}
	}
	return worst
}
