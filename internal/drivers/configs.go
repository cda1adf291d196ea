package drivers

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/nic"
	"atmosphere/internal/nvme"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/shmring"
)

// NetConfig enumerates the deployment configurations of §6.5: the
// benchmark application statically linked with the driver
// (atmo-driver), the application on a separate core communicating over
// a shared-memory ring (atmo-c2), and the application co-located with
// the driver on one core, invoking it through an IPC endpoint per batch
// (atmo-c1-bN).
type NetConfig int

// Deployment configurations.
const (
	CfgDriverLinked NetConfig = iota
	CfgC2
	CfgC1
)

// String implements fmt.Stringer.
func (c NetConfig) String() string {
	switch c {
	case CfgDriverLinked:
		return "atmo-driver"
	case CfgC2:
		return "atmo-c2"
	case CfgC1:
		return "atmo-c1"
	}
	return "?"
}

// deployment is the boot NetEnv and StorageEnv share: a kernel, and the
// driver and application threads of one configuration on their cores.
type deployment struct {
	K   *kernel.Kernel
	Cfg NetConfig

	DrvTid, AppTid   pm.Ptr
	DrvCore, AppCore int
}

// ipcSlot is the descriptor slot of the endpoint both sides share
// (shareEndpoint); the c1 configuration crosses the kernel through it.
const ipcSlot = 0

// deploy boots a kernel and places cfg's threads: the linked
// configuration runs both sides as the init thread on core 0; c2 and c1
// give each side its own process, the driver on core 1 and the
// application on core 2 (c2) or beside the driver (c1).
func deploy(cfg NetConfig) (deployment, error) {
	k, init, err := kernel.Boot(hw.Config{Frames: 8192, Cores: 4, TLBSlots: 512})
	if err != nil {
		return deployment{}, err
	}
	d := deployment{K: k, Cfg: cfg}
	switch cfg {
	case CfgDriverLinked:
		d.DrvTid, d.AppTid = init, init
	case CfgC2, CfgC1:
		d.DrvCore, d.AppCore = 1, 1
		if cfg == CfgC2 {
			d.AppCore = 2
		}
		mk := func(core int) (pm.Ptr, error) {
			r := k.SysNewProcess(0, init)
			if r.Errno != kernel.OK {
				return 0, fmt.Errorf("drivers: new_proc: %v", r.Errno)
			}
			rt := k.SysNewThreadIn(0, init, pm.Ptr(r.Vals[0]), core)
			if rt.Errno != kernel.OK {
				return 0, fmt.Errorf("drivers: new_thread: %v", rt.Errno)
			}
			return pm.Ptr(rt.Vals[0]), nil
		}
		if d.DrvTid, err = mk(d.DrvCore); err != nil {
			return deployment{}, err
		}
		if d.AppTid, err = mk(d.AppCore); err != nil {
			return deployment{}, err
		}
	}
	return d, nil
}

// shareEndpoint creates an endpoint in the driver thread's ipcSlot and
// installs it in the application thread's too, the way a trusted parent
// wires both sides up at setup time.
func (d *deployment) shareEndpoint() error {
	r := d.K.SysNewEndpoint(d.DrvCore, d.DrvTid, ipcSlot)
	if r.Errno != kernel.OK {
		return fmt.Errorf("drivers: endpoint: %v", r.Errno)
	}
	ep := pm.Ptr(r.Vals[0])
	d.K.PM.Thrd(d.AppTid).Endpoints[ipcSlot] = ep
	d.K.PM.EndpointIncRef(ep, 1)
	return nil
}

// drvClock and appClock return the two sides' cycle accumulators.
func (d *deployment) drvClock() *hw.Clock { return &d.K.Machine.Core(d.DrvCore).Clock }
func (d *deployment) appClock() *hw.Clock { return &d.K.Machine.Core(d.AppCore).Clock }

// NetEnv is a booted kernel with a driver process, an application
// process, and (for c1/c2) kernel-established shared rings between them.
type NetEnv struct {
	deployment
	Dev *nic.Device
	Gen *nic.Generator
	Drv *IxgbeDriver

	// Rings, one per direction, each with a per-side view so costs land
	// on the right core's clock.
	d2aDrv, d2aApp *shmring.Ring
	a2dDrv, a2dApp *shmring.Ring

	txPending [][]byte
}

// NewNetEnv boots a kernel and assembles the configuration. The device
// sits behind the IOMMU in every configuration (drivers are untrusted
// user processes, §3).
func NewNetEnv(cfg NetConfig, gen *nic.Generator) (*NetEnv, error) {
	dep, err := deploy(cfg)
	if err != nil {
		return nil, err
	}
	k := dep.K
	e := &NetEnv{deployment: dep, Gen: gen}
	e.Dev = nic.New(k.Machine.Mem, k.IOMMU, 1)
	e.Dev.AttachGenerator(gen)
	e.Drv, err = SetupIxgbe(k, e.DrvTid, e.DrvCore, e.Dev, 256, true)
	if err != nil {
		return nil, err
	}
	if cfg == CfgC2 || cfg == CfgC1 {
		if err := e.setupRings(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// setupRings establishes the two shared ring pages between the driver
// and application processes using the kernel's page-transfer IPC — the
// exact mechanism §3 describes for building shared-memory channels.
func (e *NetEnv) setupRings() error {
	k := e.K
	if err := e.shareEndpoint(); err != nil {
		return err
	}
	const drvRingVA = hw.VirtAddr(0x500000000)
	const appRingVA = hw.VirtAddr(0x600000000)
	var phys [2]hw.PhysAddr
	for i := 0; i < 2; i++ {
		dva := drvRingVA + hw.VirtAddr(i*hw.PageSize4K)
		ava := appRingVA + hw.VirtAddr(i*hw.PageSize4K)
		if r := k.SysMmap(e.DrvCore, e.DrvTid, dva, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
			return fmt.Errorf("drivers: ring mmap: %v", r.Errno)
		}
		// App blocks receiving the page, driver sends it.
		if r := k.SysRecv(e.AppCore, e.AppTid, ipcSlot, kernel.RecvArgs{PageVA: ava, EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
			return fmt.Errorf("drivers: ring recv: %v", r.Errno)
		}
		if r := k.SysSend(e.DrvCore, e.DrvTid, ipcSlot, kernel.SendArgs{SendPage: true, PageVA: dva}); r.Errno != kernel.OK {
			return fmt.Errorf("drivers: ring send: %v", r.Errno)
		}
		proc := k.PM.Proc(k.PM.Thrd(e.DrvTid).OwningProc)
		entry, ok := proc.PageTable.Lookup(dva)
		if !ok {
			return fmt.Errorf("drivers: ring page vanished")
		}
		phys[i] = entry.Phys
	}
	mem := k.Machine.Mem
	e.d2aDrv = shmring.New(mem, e.drvClock(), phys[0], 0)
	e.d2aApp = shmring.New(mem, e.appClock(), phys[0], 0)
	e.a2dDrv = shmring.New(mem, e.drvClock(), phys[1], 0)
	e.a2dApp = shmring.New(mem, e.appClock(), phys[1], 0)
	return nil
}

// AppWork processes one received frame on the application side and
// reports whether the frame should be transmitted back out (forwarding
// apps) — it must charge its own cost to clk.
type AppWork func(clk *hw.Clock, frame []byte) (tx bool)

// NetRates is the outcome of a network run.
type NetRates struct {
	Packets   uint64
	DrvCycles uint64
	AppCycles uint64
	// Mpps is the sustained packet rate implied by the bottleneck core,
	// capped at the 10 GbE line rate.
	Mpps float64
}

// rate converts per-core cycle totals into the sustained rate.
func rate(packets, drvCycles, appCycles uint64, sameCore bool) float64 {
	var bottleneck uint64
	if sameCore {
		bottleneck = drvCycles // one clock carries both sides
	} else {
		bottleneck = drvCycles
		if appCycles > bottleneck {
			bottleneck = appCycles
		}
	}
	if bottleneck == 0 {
		return 0
	}
	pps := float64(packets) * hw.ClockHz / float64(bottleneck)
	if pps > nic.LineRatePps {
		pps = nic.LineRatePps
	}
	return pps / 1e6
}

// RunRx drives totalPackets through the receive path in batches,
// applying work per frame on the application side, and returns the
// sustained rate.
func (e *NetEnv) RunRx(totalPackets, batch int, work AppWork) (NetRates, error) {
	if batch < 1 || batch > 128 {
		return NetRates{}, fmt.Errorf("drivers: bad batch %d", batch)
	}
	drv0, app0 := e.drvClock().Cycles(), e.appClock().Cycles()
	done := 0
	switch e.Cfg {
	case CfgDriverLinked:
		for done < totalPackets {
			if _, err := e.Dev.DeliverRX(batch); err != nil {
				return NetRates{}, err
			}
			n := e.Drv.RxBurst(batch)
			var txFrames [][]byte
			for _, f := range e.Drv.Frames[:n] {
				if work(e.appClock(), f) {
					txFrames = append(txFrames, f)
				}
			}
			if len(txFrames) > 0 {
				if err := e.Drv.TxBurst(txFrames); err != nil {
					return NetRates{}, err
				}
			}
			done += n
		}
	case CfgC2:
		if err := e.runPipelined(totalPackets, batch, work, &done); err != nil {
			return NetRates{}, err
		}
	case CfgC1:
		if err := e.runC1(totalPackets, batch, work, &done); err != nil {
			return NetRates{}, err
		}
	}
	drvC := e.drvClock().Cycles() - drv0
	appC := e.appClock().Cycles() - app0
	return NetRates{
		Packets:   uint64(done),
		DrvCycles: drvC,
		AppCycles: appC,
		Mpps:      rate(uint64(done), drvC, appC, e.DrvCore == e.AppCore),
	}, nil
}

// runPipelined is the c2 data path: the driver core receives frames and
// publishes descriptors on the shared ring; the application core
// consumes them and optionally publishes TX descriptors back.
func (e *NetEnv) runPipelined(totalPackets, batch int, work AppWork, done *int) error {
	mem := e.K.Machine.Mem
	entries := make([]shmring.Entry, batch)
	for *done < totalPackets {
		if _, err := e.Dev.DeliverRX(batch); err != nil {
			return err
		}
		n := e.Drv.RxBurst(batch)
		for i := 0; i < n; i++ {
			f := e.Drv.Frames[i]
			// Publish (phys,len) to the app. Finding the buffer's
			// physical base is free here: the slice aliases it.
			e.d2aDrv.Push(shmring.PackBufferDesc(e.Drv.bufPhys[(e.Drv.rxNext-n+i+e.Drv.ringSize)%e.Drv.ringSize], uint16(len(f)), 0))
		}
		m := e.d2aApp.PopBatch(entries[:n])
		var txFrames [][]byte
		for i := 0; i < m; i++ {
			addr, length, _ := shmring.UnpackBufferDesc(entries[i])
			frame := mem.Slice(addr, uint64(length))
			if work(e.appClock(), frame) {
				e.a2dApp.Push(entries[i])
			}
		}
		// Driver side drains the TX ring.
		t := e.a2dDrv.PopBatch(entries[:batch])
		for i := 0; i < t; i++ {
			addr, length, _ := shmring.UnpackBufferDesc(entries[i])
			txFrames = append(txFrames, mem.Slice(addr, uint64(length)))
		}
		if len(txFrames) > 0 {
			if err := e.Drv.TxBurst(txFrames); err != nil {
				return err
			}
		}
		*done += m
	}
	return nil
}

// runC1 is the same-core path: per batch the application invokes the
// driver through the IPC endpoint (SysCall), the driver fills the ring
// and bounces back with SysReplyRecv — real kernel crossings, charged
// to the shared core.
func (e *NetEnv) runC1(totalPackets, batch int, work AppWork, done *int) error {
	k := e.K
	mem := k.Machine.Mem
	// Driver parks in receive.
	if r := k.SysRecv(e.DrvCore, e.DrvTid, ipcSlot, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
		return fmt.Errorf("drivers: park recv: %v", r.Errno)
	}
	entries := make([]shmring.Entry, batch)
	for *done < totalPackets {
		// App invokes the driver (direct switch to driver).
		if r := k.SysCall(e.AppCore, e.AppTid, ipcSlot, kernel.SendArgs{Regs: [4]uint64{uint64(batch)}}); r.Errno != kernel.EWOULDBLOCK {
			return fmt.Errorf("drivers: call: %v", r.Errno)
		}
		// Driver side: receive from the NIC, publish to the ring.
		if _, err := e.Dev.DeliverRX(batch); err != nil {
			return err
		}
		n := e.Drv.RxBurst(batch)
		for i := 0; i < n; i++ {
			f := e.Drv.Frames[i]
			e.d2aDrv.Push(shmring.PackBufferDesc(e.Drv.bufPhys[(e.Drv.rxNext-n+i+e.Drv.ringSize)%e.Drv.ringSize], uint16(len(f)), 0))
		}
		// Driver replies and re-parks (direct switch back to app).
		if r := k.SysReplyRecv(e.DrvCore, e.DrvTid, ipcSlot, kernel.SendArgs{Regs: [4]uint64{uint64(n)}}, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
			return fmt.Errorf("drivers: reply_recv: %v", r.Errno)
		}
		// App consumes.
		m := e.d2aApp.PopBatch(entries[:n])
		for i := 0; i < m; i++ {
			addr, length, _ := shmring.UnpackBufferDesc(entries[i])
			frame := mem.Slice(addr, uint64(length))
			work(e.appClock(), frame)
		}
		*done += m
	}
	return nil
}

// --- NVMe configurations -----------------------------------------------------

// StorageEnv is the NVMe counterpart of NetEnv.
type StorageEnv struct {
	deployment
	Dev *nvme.Device
	Drv *NvmeDriver
}

// NewStorageEnv boots a kernel with an NVMe device and driver in the
// given configuration.
func NewStorageEnv(cfg NetConfig, capacityBlocks, qSize int) (*StorageEnv, error) {
	dep, err := deploy(cfg)
	if err != nil {
		return nil, err
	}
	k := dep.K
	e := &StorageEnv{deployment: dep}
	e.Dev = nvme.New(k.Machine.Mem, k.IOMMU, 2, capacityBlocks)
	if cfg != CfgDriverLinked {
		if err := e.shareEndpoint(); err != nil {
			return nil, err
		}
	}
	e.Drv, err = SetupNvme(k, e.DrvTid, e.DrvCore, e.Dev, qSize, true)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// StorageRates is the outcome of a storage run.
type StorageRates struct {
	IOs         uint64
	CoreCycles  uint64
	CyclesPerIO float64
	// IOPS folds the CPU rate with the device's latency and throughput
	// envelope (§6.5.2).
	IOPS float64
}

// AtmoWriteEfficiency models the 10% device-level write overhead the
// paper measures for the Atmosphere driver on all configurations
// (232K of 256K IOPS, §6.5.2).
const AtmoWriteEfficiency = 0.906

// RunSequential performs totalIOs sequential 4 KiB operations in
// batches and returns the rate.
func (e *StorageEnv) RunSequential(op byte, totalIOs, batch int) (StorageRates, error) {
	drv0, app0 := e.drvClock().Cycles(), e.appClock().Cycles()
	if e.Cfg == CfgC1 {
		if r := e.K.SysRecv(e.DrvCore, e.DrvTid, ipcSlot, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
			return StorageRates{}, fmt.Errorf("drivers: park recv: %v", r.Errno)
		}
	}
	lba := uint64(0)
	done := 0
	for done < totalIOs {
		if e.Cfg == CfgC1 {
			if r := e.K.SysCall(e.AppCore, e.AppTid, ipcSlot, kernel.SendArgs{Regs: [4]uint64{uint64(batch)}}); r.Errno != kernel.EWOULDBLOCK {
				return StorageRates{}, fmt.Errorf("drivers: call: %v", r.Errno)
			}
		}
		if err := e.Drv.SubmitBatch(op, lba, batch); err != nil {
			return StorageRates{}, err
		}
		if got, err := e.Drv.PollCompletions(batch); err != nil {
			return StorageRates{}, fmt.Errorf("drivers: %d of %d completions: %w", got, batch, err)
		} else if got != batch {
			return StorageRates{}, fmt.Errorf("drivers: %d of %d completions", got, batch)
		}
		if e.Cfg == CfgC1 {
			if r := e.K.SysReplyRecv(e.DrvCore, e.DrvTid, ipcSlot, kernel.SendArgs{}, kernel.RecvArgs{EdptSlot: -1}); r.Errno != kernel.EWOULDBLOCK {
				return StorageRates{}, fmt.Errorf("drivers: reply_recv: %v", r.Errno)
			}
		}
		lba = (lba + uint64(batch)) % 1024
		done += batch
	}
	drvC := e.drvClock().Cycles() - drv0
	appC := e.appClock().Cycles() - app0
	core := drvC
	if e.DrvCore != e.AppCore && appC > core {
		core = appC
	}
	perIO := float64(core) / float64(done)
	coreRate := hw.ClockHz / perIO

	// Device envelope.
	var latency float64
	var devMax float64
	if op == nvme.OpRead {
		latency = nvme.ReadLatencyCycles
		devMax = nvme.ReadMaxIOPS
	} else {
		latency = nvme.WriteLatencyCycles
		devMax = nvme.WriteMaxIOPS * AtmoWriteEfficiency
	}
	latencyBound := float64(batch) * hw.ClockHz / latency
	iops := coreRate
	if latencyBound < iops {
		iops = latencyBound
	}
	if devMax < iops {
		iops = devMax
	}
	return StorageRates{
		IOs: uint64(done), CoreCycles: core,
		CyclesPerIO: perIO, IOPS: iops,
	}, nil
}
