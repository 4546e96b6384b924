#include "core/machine.hh"

#include "fault/watchdog.hh"
#include "sim/logging.hh"

namespace mcsim::core
{

void
MachineConfig::validate() const
{
    if (numProcs == 0 || numProcs > 64)
        fatal("numProcs must be 1..64 (got %u)", numProcs);
    if (numModules == 0 || numModules > 64)
        fatal("numModules must be 1..64 (got %u)", numModules);
    if (!isPowerOf2(numModules))
        fatal("numModules must be a power of two (got %u)", numModules);
    if (switchRadix < 2)
        fatal("switchRadix must be >= 2");
    if (bufferEntries == 0)
        fatal("bufferEntries must be >= 1");
    if (loadDelay == 0)
        fatal("loadDelay must be >= 1");
    if (relaxedMshrs == 0)
        fatal("relaxedMshrs must be >= 1");
    fault.validate();
    // Cache geometry is validated by CacheParams::validate().
}

Machine::Machine(const MachineConfig &config) : cfg(config)
{
    cfg.validate();

    const unsigned ports = std::max(cfg.numProcs, cfg.numModules);
    const ModelParams model = cfg.modelParams();

    if (cfg.obs.tracer) {
        tracerPtr = std::make_unique<obs::Tracer>(cfg.obs.tracerEvents);
        tracerPtr->arm(cfg.obs.tracerArmed);
    }

    reqNet = std::make_unique<Network>(
        queue, ports, cfg.switchRadix, [this](mem::NetMsg &&msg) {
            modules[msg.dst % cfg.numModules]->handleRequest(std::move(msg));
        });
    respNet = std::make_unique<Network>(
        queue, ports, cfg.switchRadix, [this](mem::NetMsg &&msg) {
            caches[msg.dst % cfg.numProcs]->handleResponse(std::move(msg));
        });

    mem::MemoryParams mem_params;
    mem_params.lineBytes = cfg.lineBytes;
    mem_params.initCycles = cfg.memInitCycles;
    mem_params.numProcs = cfg.numProcs;

    for (unsigned m = 0; m < cfg.numModules; ++m) {
        respBufs.push_back(std::make_unique<mem::Port>(
            queue, *respNet, cfg.bufferEntries, /*bypass=*/false));
        modules.push_back(std::make_unique<mem::MemoryModule>(
            queue, m, mem_params, *respBufs.back()));
    }

    mem::CacheParams cache_params;
    cache_params.cacheBytes = cfg.cacheBytes;
    cache_params.lineBytes = cfg.lineBytes;
    cache_params.assoc = cfg.assoc;
    cache_params.numMshrs = model.numMshrs;
    cache_params.missHandleCycles = cfg.missHandleCycles;
    cache_params.fillCycles = cfg.fillCycles;
    cache_params.nextLinePrefetch = cfg.nextLinePrefetch;

    for (unsigned p = 0; p < cfg.numProcs; ++p) {
        reqBufs.push_back(std::make_unique<mem::Port>(
            queue, *reqNet, cfg.bufferEntries, model.loadBypass));
        caches.push_back(std::make_unique<mem::Cache>(
            queue, p, cache_params, *reqBufs.back(), cfg.numModules));

        cpu::ProcParams proc_params;
        proc_params.id = p;
        proc_params.model = model;
        proc_params.loadDelay = cfg.loadDelay;
        proc_params.branchDelay = cfg.branchDelay;
        procs.push_back(std::make_unique<cpu::Processor>(
            queue, proc_params, *caches.back(), fmem));
        procs.back()->setDoneHandler([this]() { onWorkloadDone(); });
    }

    if (cfg.check.enabled()) {
        checkerPtr = std::make_unique<check::Checker>(
            cfg.check, model, cfg.numProcs, cfg.numModules, cfg.lineBytes);
        std::vector<const mem::Cache *> cache_views;
        for (const auto &c : caches)
            cache_views.push_back(c.get());
        std::vector<const mem::MemoryModule *> module_views;
        for (const auto &m : modules)
            module_views.push_back(m.get());
        checkerPtr->attach(std::move(cache_views), std::move(module_views));
        for (auto &c : caches)
            c->setChecker(checkerPtr.get());
        for (auto &m : modules)
            m->setChecker(checkerPtr.get());
        for (auto &p : procs)
            p->setChecker(checkerPtr.get());
    }

    if (cfg.trace.enabled()) {
        recorderPtr = std::make_unique<axiom::TraceRecorder>(cfg.trace,
                                                             cfg.numProcs);
        for (auto &p : procs)
            p->setRecorder(recorderPtr.get());
    }

    if (tracerPtr) {
        reqNet->setTracer(tracerPtr.get(), obs::Track::ReqSwitch);
        respNet->setTracer(tracerPtr.get(), obs::Track::RespSwitch);
        for (auto &c : caches)
            c->setTracer(tracerPtr.get());
        for (auto &p : procs)
            p->setTracer(tracerPtr.get());
        for (auto &m : modules)
            m->setTracer(tracerPtr.get());
    }

    if (cfg.fault.enabled()) {
        planPtr = std::make_unique<fault::FaultPlan>(cfg.fault);
        // Only kinds with a retry path may be lost or cloned; everything
        // else is delay-eligible only (see FaultPlan::onNetMessage).
        auto droppable = [](const mem::CoherenceMsg &cm) {
            switch (cm.kind) {
              case mem::MsgKind::GetShared:
              case mem::MsgKind::GetExclusive:
              case mem::MsgKind::DataReplyShared:
              case mem::MsgKind::DataReplyExclusive:
              case mem::MsgKind::Nack:
                return true;
              case mem::MsgKind::Writeback:
              case mem::MsgKind::InvAck:
              case mem::MsgKind::RecallStale:
              case mem::MsgKind::FlushData:
              case mem::MsgKind::Invalidate:
              case mem::MsgKind::RecallShared:
              case mem::MsgKind::RecallExclusive:
                return false;
            }
            return false;  // not reached: all kinds enumerated above
        };
        reqNet->setFaultFilter([this, droppable](const mem::NetMsg &m) {
            const fault::FaultAction a = planPtr->onNetMessage(
                /*request_net=*/true, droppable(m.payload));
            return net::NetPerturbation{a.drop, a.duplicate, a.extraDelay,
                                        a.duplicateDelay};
        });
        respNet->setFaultFilter([this, droppable](const mem::NetMsg &m) {
            const fault::FaultAction a = planPtr->onNetMessage(
                /*request_net=*/false, droppable(m.payload));
            return net::NetPerturbation{a.drop, a.duplicate, a.extraDelay,
                                        a.duplicateDelay};
        });
        for (auto &c : caches)
            c->setFaultPlan(planPtr.get());
        for (auto &m : modules)
            m->setFaultPlan(planPtr.get());
    }

    if (cfg.choiceScheduler) {
        // Model checking (src/mc/): both networks switch to logical
        // scheduler-driven delivery; directory waiter service and retry
        // backoff become explicit choice points. The label maps each
        // message to the line address the DPOR dependence relation
        // reasons about.
        ChoiceScheduler *mc = cfg.choiceScheduler;
        auto label = [](const mem::NetMsg &m) {
            return ChoiceOption{m.payload.lineAddr, 0};
        };
        auto probe = [this, mc](bool request_net) {
            return [this, mc, request_net](const mem::NetMsg &m) {
                DeliveryRecord rec;
                rec.tick = queue.now();
                rec.requestNet = request_net;
                rec.src = m.src;
                rec.dst = m.dst;
                rec.lineAddr = m.payload.lineAddr;
                rec.kind = static_cast<std::uint8_t>(m.payload.kind);
                rec.seq = m.payload.seq;
                mc->onDelivery(rec);
            };
        };
        reqNet->setChoiceScheduler(mc, label, probe(true));
        respNet->setChoiceScheduler(mc, label, probe(false));
        for (auto &m : modules)
            m->setChoiceScheduler(mc);
        for (auto &c : caches)
            c->setChoiceScheduler(mc);
    }
}

void
Machine::startWorkload(unsigned proc_id, SimTask &&task)
{
    if (proc_id >= cfg.numProcs)
        fatal("startWorkload: processor %u out of range", proc_id);
    procs[proc_id]->start(std::move(task));
    ++started;
}

void
Machine::onWorkloadDone()
{
    ++doneCount;
}

std::uint64_t
Machine::totalRetired() const
{
    std::uint64_t retired = 0;
    for (const auto &p : procs)
        retired += p->stats().instructions;
    return retired;
}

std::string
Machine::diagnosticSnapshot() const
{
    std::string out = strprintf("diagnostic snapshot at tick %llu:\n",
                                static_cast<unsigned long long>(queue.now()));
    for (unsigned p = 0; p < cfg.numProcs; ++p) {
        const auto &proc = *procs[p];
        out += strprintf(
            "  proc %u: %s, %llu instrs, %u outstanding, iface buffer "
            "%zu, overflow %zu\n",
            p, proc.done() ? "done" : "running",
            static_cast<unsigned long long>(proc.stats().instructions),
            proc.outstandingRefs(), reqBufs[p]->occupancy(),
            reqBufs[p]->backlog());
        for (const auto &m : caches[p]->pendingMshrs()) {
            out += strprintf(
                "    mshr line 0x%llx %s%s, issued at %llu, %u retries\n",
                static_cast<unsigned long long>(m.lineAddr),
                m.exclusive ? "exclusive" : "shared",
                m.replyReceived ? ", reply received" : "",
                static_cast<unsigned long long>(m.issueTick), m.attempts);
        }
    }
    for (unsigned m = 0; m < cfg.numModules; ++m) {
        if (modules[m]->openTransactions() == 0 &&
            respBufs[m]->occupancy() == 0 && respBufs[m]->backlog() == 0) {
            continue;
        }
        out += strprintf(
            "  module %u: %zu open transactions, iface buffer %zu, "
            "overflow %zu\n",
            m, modules[m]->openTransactions(), respBufs[m]->occupancy(),
            respBufs[m]->backlog());
    }
    if (planPtr) {
        const fault::FaultStats &fs = planPtr->stats();
        out += strprintf(
            "  faults injected: %llu (%llu drops, %llu dups, %llu delays, "
            "%llu reply losses, %llu stalls, %llu blackout deferrals)\n",
            static_cast<unsigned long long>(fs.total()),
            static_cast<unsigned long long>(fs.drops),
            static_cast<unsigned long long>(fs.duplicates),
            static_cast<unsigned long long>(fs.delays),
            static_cast<unsigned long long>(fs.replyLosses),
            static_cast<unsigned long long>(fs.moduleStalls),
            static_cast<unsigned long long>(fs.blackoutDeferrals));
    }
    if (tracerPtr && tracerPtr->size() > 0) {
        // Tail of the event-trace ring: the most recent activity.
        constexpr std::size_t tail = 16;
        const std::size_t skip =
            tracerPtr->size() > tail ? tracerPtr->size() - tail : 0;
        std::size_t index = 0;
        out += strprintf("  trace tail (last %zu of %zu events):\n",
                         tracerPtr->size() - skip, tracerPtr->size());
        tracerPtr->forEach([&](const obs::TraceEvent &e) {
            if (index++ < skip)
                return;
            out += strprintf(
                "    [%llu +%llu] %s/%u %s line 0x%llx\n",
                static_cast<unsigned long long>(e.begin),
                static_cast<unsigned long long>(e.dur),
                obs::trackName(e.track), e.id, obs::spanKindName(e.kind),
                static_cast<unsigned long long>(e.arg));
        });
    }
    return out;
}

Tick
Machine::run()
{
    if (started == 0)
        fatal("Machine::run with no workloads started");
    fault::ForwardProgressWatchdog watchdog(cfg.fault.watchdogCycles);
    while (doneCount < started) {
        if (queue.empty()) {
            fatal("deadlock: %u of %u workloads unfinished at tick %llu\n%s",
                  started - doneCount, started,
                  static_cast<unsigned long long>(queue.now()),
                  diagnosticSnapshot().c_str());
        }
        queue.run(1 << 16);
        if (watchdog.poll(queue.now(), totalRetired())) {
            fatal("forward-progress watchdog: no instruction retired for "
                  "%llu cycles (threshold %llu) with %u of %u workloads "
                  "unfinished\n%s",
                  static_cast<unsigned long long>(
                      watchdog.stalledCycles(queue.now())),
                  static_cast<unsigned long long>(watchdog.threshold()),
                  started - doneCount, started,
                  diagnosticSnapshot().c_str());
        }
        if (queue.now() > cfg.maxCycles) {
            fatal("simulation exceeded maxCycles=%llu with %u workloads "
                  "unfinished\n%s",
                  static_cast<unsigned long long>(cfg.maxCycles),
                  started - doneCount, diagnosticSnapshot().c_str());
        }
    }
    if (planPtr) {
        // Faulted runs can retire their last instruction with revocations,
        // duplicates, and retry timers still in flight; drain them so the
        // final audit and the chaos fingerprint see the quiesced protocol,
        // not a mid-flight window. (Terminates: every pending retry timer
        // no-ops against its completed MSHR and nothing re-arms.) Fault-free
        // runs stop at their last retirement, as the goldens pin.
        while (!queue.empty())
            queue.run(1 << 16);
    } else {
        // Without injected faults no message is lost, duplicated or
        // reordered past its revocation, so the protocol must never have
        // discarded one: a discard here is a protocol bug.
        std::uint64_t discarded = 0;
        for (const auto &c : caches)
            discarded += c->stats().staleReplies;
        for (const auto &m : modules)
            discarded += m->stats().staleMessages;
        if (discarded > 0) {
            fatal("protocol discarded %llu stale message(s) on a fault-free "
                  "run\n%s",
                  static_cast<unsigned long long>(discarded),
                  diagnosticSnapshot().c_str());
        }
    }
    if (checkerPtr)
        checkerPtr->finalAudit();
    Tick last = 0;
    for (const auto &p : procs)
        if (p->done())
            last = std::max(last, p->stats().finishedAt);
    return last;
}

StatSet
Machine::collectStats() const
{
    StatSet out;
    out.set("machine.num_procs", cfg.numProcs);
    out.set("machine.line_bytes", cfg.lineBytes);
    out.set("machine.cache_bytes", cfg.cacheBytes);

    for (unsigned p = 0; p < cfg.numProcs; ++p) {
        caches[p]->stats().addTo(out, "cache.total.");
        procs[p]->stats().addTo(out, "proc.total.");
    }
    for (unsigned m = 0; m < cfg.numModules; ++m)
        modules[m]->stats().addTo(out, "mem.total.");
    reqNet->stats().addTo(out, "reqnet.");
    respNet->stats().addTo(out, "respnet.");
    for (unsigned p = 0; p < cfg.numProcs; ++p)
        reqBufs[p]->stats().addTo(out, "reqbuf.total.");
    if (checkerPtr)
        checkerPtr->stats().addTo(out, "check.");
    if (recorderPtr)
        out.set("axiom.events", static_cast<double>(recorderPtr->size()));
    if (tracerPtr) {
        out.set("obs.trace_events", static_cast<double>(tracerPtr->size()));
        out.set("obs.trace_dropped",
                static_cast<double>(tracerPtr->dropped()));
    }
    if (planPtr)
        planPtr->stats().addTo(out, "fault.");

    Tick last = 0;
    for (const auto &p : procs)
        last = std::max(last, p->stats().finishedAt);
    out.set("machine.run_ticks", static_cast<double>(last));
    return out;
}

} // namespace mcsim::core
