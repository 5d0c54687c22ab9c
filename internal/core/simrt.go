package core

import (
	"fmt"

	"anydb/internal/sim"
)

// ClientAC is the pseudo-destination representing the client/harness:
// events sent to it (EvTxnDone, EvQueryDone) invoke the cluster's client
// callback instead of an AC.
const ClientAC ACID = -2

// SimCluster runs a set of ACs on the virtual-time kernel: every AC is
// one sim.Actor (one virtual core), servers are connected by
// latency+bandwidth links, and all costs come from the cost model. It
// reproduces the paper's testbed deterministically (internal/sim stands
// in for its cores and network; cost.go gives the calibration).
type SimCluster struct {
	Sched *sim.Scheduler
	Costs sim.CostModel
	Topo  *Topology

	acs    map[ACID]*AC
	actors map[ACID]*sim.Actor
	mem    map[int]*sim.Link    // per-server shared-memory queue fabric
	net    map[[2]int]*sim.Link // directed server-pair network links

	// DPI enables network-flow offload: cross-server senders skip the
	// serialization charge and shuffle partitioning runs on the NIC
	// (the co-processor effect of §4).
	DPI bool

	client func(at sim.Time, ev *Event)

	nextStream StreamID
}

// NewSimCluster builds actors and links for the given topology. setup is
// called once per AC so callers can register behaviors.
func NewSimCluster(topo *Topology, costs sim.CostModel, setup func(ac *AC)) *SimCluster {
	cl := &SimCluster{
		Sched:  sim.NewScheduler(),
		Costs:  costs,
		Topo:   topo,
		acs:    make(map[ACID]*AC),
		actors: make(map[ACID]*sim.Actor),
		mem:    make(map[int]*sim.Link),
		net:    make(map[[2]int]*sim.Link),
	}
	for _, id := range topo.AllACs() {
		cl.addAC(id, setup)
	}
	return cl
}

func (cl *SimCluster) addAC(id ACID, setup func(ac *AC)) {
	ac := NewAC(id)
	if setup != nil {
		setup(ac)
	}
	cl.acs[id] = ac
	actor := sim.NewActor(cl.Sched, fmt.Sprintf("ac%d", id), func(a *sim.Actor, m sim.Message) {
		ctx := &simCtx{cl: cl, actor: a, self: id}
		switch v := m.(type) {
		case *Event:
			a.Charge(cl.Costs.EventDispatch)
			ac.HandleEvent(ctx, v)
		case *DataMsg:
			a.Charge(cl.Costs.BatchOverhead)
			ac.HandleData(ctx, v)
		default:
			panic(fmt.Sprintf("core: unknown message %T", m))
		}
	})
	cl.actors[id] = actor
	srv := cl.Topo.ServerOf(id)
	if _, ok := cl.mem[srv]; !ok {
		cl.mem[srv] = sim.NewLink(cl.Sched, fmt.Sprintf("mem%d", srv),
			cl.Costs.LocalHopLatency, cl.Costs.MemBytesPerSec)
	}
}

// GrowServer adds a new server with the given core count at runtime
// (elasticity, §5) and returns its AC ids.
func (cl *SimCluster) GrowServer(cores int, setup func(ac *AC)) []ACID {
	ids := cl.Topo.AddServer(cores)
	for _, id := range ids {
		cl.addAC(id, setup)
	}
	return ids
}

// SetClient registers the completion callback.
func (cl *SimCluster) SetClient(fn func(at sim.Time, ev *Event)) { cl.client = fn }

// AC returns the component with the given id.
func (cl *SimCluster) AC(id ACID) *AC { return cl.acs[id] }

// Actor returns the virtual core of an AC (for utilization accounting).
func (cl *SimCluster) Actor(id ACID) *sim.Actor { return cl.actors[id] }

// NewStream allocates a cluster-unique stream id.
func (cl *SimCluster) NewStream() StreamID {
	cl.nextStream++
	return cl.nextStream
}

// netLink returns (creating) the directed link between two servers. Per
// server pair and direction there is one flow, matching the paper's DPI
// flows.
func (cl *SimCluster) netLink(from, to int) *sim.Link {
	key := [2]int{from, to}
	l, ok := cl.net[key]
	if !ok {
		l = sim.NewLink(cl.Sched, fmt.Sprintf("net%d-%d", from, to),
			cl.Costs.NetHopLatency, cl.Costs.NetBytesPerSec)
		cl.net[key] = l
	}
	return l
}

// Inject delivers an event from outside the simulation (the workload
// harness) at absolute virtual time at.
func (cl *SimCluster) Inject(dst ACID, ev *Event, at sim.Time) {
	cl.actors[dst].DeliverAt(ev, at)
}

// InjectData delivers a data message from outside at absolute time at.
func (cl *SimCluster) InjectData(dst ACID, msg *DataMsg, at sim.Time) {
	cl.actors[dst].DeliverAt(msg, at)
}

// send moves an event or data message from a running handler to dst,
// charging the sender and occupying links per the cost model.
func (cl *SimCluster) send(src *sim.Actor, from, to ACID, m sim.Message, size int64, isData bool) {
	if to == ClientAC {
		ev, ok := m.(*Event)
		if !ok {
			panic("core: only events may be sent to the client")
		}
		at := src.Now() + cl.Costs.LocalHopLatency
		cl.Sched.At(at, func() {
			if cl.client != nil {
				cl.client(at, ev)
			}
		})
		return
	}
	dst := cl.actors[to]
	if dst == nil {
		panic(fmt.Sprintf("core: send to unknown AC %d", to))
	}
	sFrom, sTo := cl.Topo.ServerOf(from), cl.Topo.ServerOf(to)
	if sFrom == sTo {
		if isData {
			// Shared-memory queue: bandwidth-limited, latency small.
			cl.mem[sFrom].TransferTo(src.Now(), size, dst, m)
		} else {
			src.Send(dst, m, cl.Costs.LocalHopLatency)
		}
		return
	}
	// Cross-server: without DPI offload the sender pays serialization;
	// with DPI the flow processor also pre-hashes data batches in
	// flight (the NIC as co-processor).
	if !cl.DPI {
		src.Charge(cl.Costs.SerializeCost(size))
	} else if dm, ok := m.(*DataMsg); ok {
		dm.Prehashed = true
	}
	cl.netLink(sFrom, sTo).TransferTo(src.Now(), size, dst, m)
}

// simCtx implements Context for handlers running on the sim runtime.
type simCtx struct {
	cl    *SimCluster
	actor *sim.Actor
	self  ACID
}

func (c *simCtx) Self() ACID            { return c.self }
func (c *simCtx) Now() sim.Time         { return c.actor.Now() }
func (c *simCtx) Charge(d sim.Time)     { c.actor.Charge(d) }
func (c *simCtx) Costs() *sim.CostModel { return &c.cl.Costs }
func (c *simCtx) Topology() *Topology   { return c.cl.Topo }

func (c *simCtx) Send(dst ACID, ev *Event) {
	c.actor.Charge(c.cl.Costs.EventCreate)
	c.cl.send(c.actor, c.self, dst, ev, ev.WireSize(), false)
}

func (c *simCtx) SendData(dst ACID, msg *DataMsg) {
	c.cl.send(c.actor, c.self, dst, msg, msg.WireSize(), true)
}

// Offloaded reports whether a data stream from this AC toward dst rides
// a DPI flow (partitioning runs on the NIC, not this core).
func (c *simCtx) Offloaded(dst ACID) bool {
	return c.cl.DPI && dst != ClientAC && !c.cl.Topo.SameServer(c.self, dst)
}

// Run drains the simulation.
func (cl *SimCluster) Run() { cl.Sched.Run() }

// RunUntil advances virtual time to the deadline.
func (cl *SimCluster) RunUntil(t sim.Time) { cl.Sched.RunUntil(t) }
