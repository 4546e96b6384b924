#include "mem/memory_module.hh"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "check/checker.hh"
#include "net/iface_buffer.hh"
#include "sim/logging.hh"

namespace mcsim::mem
{

namespace
{

constexpr std::uint64_t
bitOf(ProcId p)
{
    return std::uint64_t(1) << p;
}

} // namespace

void
MemoryParams::validate() const
{
    if (!isPowerOf2(lineBytes) || lineBytes < 8)
        fatal("memory line size must be a power of two >= 8 (got %u)",
              lineBytes);
    if (numProcs == 0 || numProcs > 64)
        fatal("directory presence vector supports 1..64 processors (got %u)",
              numProcs);
}

MemoryModule::MemoryModule(EventQueue &eq, ModuleId id,
                           const MemoryParams &params, Port &port)
    : queue(eq), moduleId(id), cfg(params), out(port)
{
    cfg.validate();
}

MemoryModule::DirState
MemoryModule::dirState(Addr line_addr) const
{
    auto it = dir.find(line_addr);
    return it == dir.end() ? DirState::Uncached : it->second.state;
}

std::uint64_t
MemoryModule::presenceMask(Addr line_addr) const
{
    auto it = dir.find(line_addr);
    return it == dir.end() ? 0 : it->second.presence;
}

std::vector<std::pair<Addr, MemoryModule::DirState>>
MemoryModule::knownLines() const
{
    std::vector<std::pair<Addr, DirState>> out;
    out.reserve(dir.size());
    // mcsim-lint: order-insensitive(sorted drain below canonicalizes)
    for (const auto &[addr, entry] : dir)
        out.emplace_back(addr, entry.state);
    // Sorted drain: callers (coherence auditor, tests) see a canonical
    // order independent of hash-table layout.
    std::sort(out.begin(), out.end());
    return out;
}

ProcId
MemoryModule::ownerOf(Addr line_addr) const
{
    auto it = dir.find(line_addr);
    return it == dir.end() ? 0 : it->second.owner;
}

void
MemoryModule::corruptDirEntryForTest(Addr line_addr, DirState state,
                                     ProcId owner, std::uint64_t presence)
{
    DirEntry &entry = dir[line_addr];
    entry.state = state;
    entry.owner = owner;
    entry.presence = presence;
}

Tick
MemoryModule::reserveRead()
{
    const Tick start = std::max(queue.now(), busyUntil);
    modStats.queueHist.record(start - queue.now());
    const Tick first_word = start + cfg.initCycles;
    busyUntil = first_word + cfg.lineWords();
    modStats.busyCycles += busyUntil - start;
    if (tracer) {
        tracer->span(obs::Track::Module, moduleId, obs::SpanKind::DramBusy,
                     start, busyUntil - start);
    }
    return first_word;
}

void
MemoryModule::reserveWrite()
{
    const Tick start = std::max(queue.now(), busyUntil);
    modStats.queueHist.record(start - queue.now());
    busyUntil = start + cfg.initCycles + cfg.lineWords();
    modStats.busyCycles += busyUntil - start;
    if (tracer) {
        tracer->span(obs::Track::Module, moduleId, obs::SpanKind::DramBusy,
                     start, busyUntil - start);
    }
}

void
MemoryModule::sendToProc(MsgKind kind, Addr line_addr, ProcId proc,
                         Tick when, std::uint32_t seq)
{
    if (plan &&
        (kind == MsgKind::DataReplyShared ||
         kind == MsgKind::DataReplyExclusive) &&
        plan->loseReply(moduleId)) {
        // Lost reply: the directory has already committed the grant, so
        // the requester's timeout retry finds "Exclusive, owner == self"
        // (or a Shared presence bit) and is re-granted idempotently.
        return;
    }
    NetMsg msg;
    msg.src = moduleId;
    msg.dst = proc;
    msg.bytes = messageBytes(kind, cfg.lineBytes);
    msg.payload = CoherenceMsg{kind, line_addr, proc, seq};
    if (checker)
        checker->onProtocolMessage(msg.payload, /*to_memory=*/false);
    if (when <= queue.now()) {
        out.send(std::move(msg));
    } else {
        queue.schedule(
            when, [this, m = msg]() mutable { out.send(std::move(m)); },
            EventQueue::prioDeliver);
    }
}

void
MemoryModule::handleRequest(NetMsg &&msg)
{
    if (plan) {
        // Blackout: the module is down; defer (never drop) every arrival
        // to the outage end, where it re-enters this check.
        const Tick until = plan->blackoutUntil(moduleId, queue.now());
        if (until > queue.now()) {
            queue.schedule(
                until,
                [this, m = std::move(msg)]() mutable {
                    handleRequest(std::move(m));
                },
                EventQueue::prioDeliver);
            return;
        }
        // Transient stall: this arrival is processed late, once.
        if (const Tick stall = plan->stallCycles(moduleId)) {
            queue.scheduleIn(
                stall,
                [this, m = std::move(msg)]() mutable {
                    dispatchRequest(std::move(m));
                },
                EventQueue::prioDeliver);
            return;
        }
    }
    dispatchRequest(std::move(msg));
}

void
MemoryModule::dispatchRequest(NetMsg &&msg)
{
    const CoherenceMsg cm = msg.payload;
    switch (cm.kind) {
      case MsgKind::GetShared:
      case MsgKind::GetExclusive: {
        auto it = txns.find(cm.lineAddr);
        if (it != txns.end()) {
            if (plan && plan->config().nackThreshold > 0 &&
                it->second.waiters.size() >=
                    plan->config().nackThreshold) {
                // Hardened: refuse instead of queueing ever deeper; the
                // requester re-sends after backoff.
                modStats.nacksSent += 1;
                sendToProc(MsgKind::Nack, cm.lineAddr, cm.proc,
                           queue.now());
                return;
            }
            modStats.queuedRequests += 1;
            it->second.waiters.push_back(Waiter{std::move(msg), queue.now()});
            return;
        }
        startTransaction(std::move(msg));
        return;
      }

      case MsgKind::Writeback: {
        // Valid only from the registered owner at the current grant seq;
        // a Writeback that lost a race with a completed recall (its grant
        // was superseded) is discarded.
        DirEntry &entry = dir[cm.lineAddr];
        if (entry.state != DirState::Exclusive || entry.owner != cm.proc ||
            cm.seq != entry.seq) {
            modStats.staleMessages += 1;
            return;
        }
        modStats.writebacks += 1;
        auto it = txns.find(cm.lineAddr);
        if (it != txns.end() && it->second.waitingData) {
            handleDataArrival(cm.lineAddr, false);
            return;
        }
        entry.state = DirState::Uncached;
        entry.presence = 0;
        reserveWrite();
        if (checker)
            checker->onDirectoryEvent(moduleId, cm.lineAddr);
        return;
      }

      case MsgKind::FlushData: {
        auto it = txns.find(cm.lineAddr);
        if (it == txns.end() || !it->second.waitingData) {
            // The transaction was already completed (e.g. by a
            // RecallStale recovery); the data is functionally current in
            // memory anyway.
            modStats.staleMessages += 1;
            return;
        }
        handleDataArrival(cm.lineAddr, true);
        return;
      }

      case MsgKind::RecallStale: {
        // The recall target no longer holds the grant under recall. The
        // echoed stamp (the recalling transaction's grant-to-be) tells
        // which transaction it answers.
        auto it = txns.find(cm.lineAddr);
        const std::uint32_t seq = dir[cm.lineAddr].seq;
        const bool answers_open = it != txns.end() &&
                                  it->second.owner == cm.proc &&
                                  cm.seq == seq + 1;
        if (answers_open && it->second.waitingData) {
            // The target's grant was lost or its Writeback already
            // consumed: no data is coming and waiting would wedge the
            // line. Memory's copy is current (functional/timing split),
            // so complete the recall with it; a Writeback still in flight
            // later fails the grant seq check above.
            handleDataArrival(cm.lineAddr, false);
        } else if (!answers_open && cm.seq != seq) {
            // A long-delayed RecallStale from an earlier recall of this
            // processor: closing the open transaction with it would race
            // that transaction's own recall.
            modStats.staleMessages += 1;
        }
        // Otherwise the target evicted the line before the recall
        // reached it, and its Writeback has closed (seq == entry.seq) or
        // is closing (finish pending) the transaction: nothing to do.
        return;
      }

      case MsgKind::InvAck:
        handleInvAck(cm.lineAddr);
        return;

      case MsgKind::DataReplyShared:
      case MsgKind::DataReplyExclusive:
      case MsgKind::Invalidate:
      case MsgKind::RecallShared:
      case MsgKind::RecallExclusive:
      case MsgKind::Nack:
        // Response-network kinds; the request network never carries them
        // (validateMessage rejects them at injection).
        unreachableMessage("memory module", moduleId, cm.kind);
    }
}

void
MemoryModule::startTransaction(NetMsg &&msg)
{
    const CoherenceMsg cm = msg.payload;
    const ProcId req = cm.proc;
    DirEntry &entry = dir[cm.lineAddr];
    Txn &txn = txns[cm.lineAddr];
    txn.reqKind = cm.kind;
    txn.requester = req;

    if (cm.kind == MsgKind::GetShared) {
        switch (entry.state) {
          case DirState::Uncached:
          case DirState::Shared:
            finish(cm.lineAddr, reserveRead(), false);
            return;
          case DirState::Exclusive:
            txn.waitingData = true;
            txn.owner = entry.owner;
            if (entry.owner == req && cm.seq > entry.seq) {
                // The owner wrote the line back and re-requested it before
                // the writeback arrived (its floor is past the grant it
                // surrendered); just wait for the writeback.
                txn.keepOwnerShared = false;
                return;
            }
            // Recall the owner. When that is the requester itself, its
            // grant was lost or this Get is a stale duplicate, and the
            // requester may legitimately fetch again: a live Modified copy
            // flushes and the transaction completes normally; a clean or
            // missing copy answers RecallStale and memory's current image
            // (functional/timing split) completes it. Discarding instead
            // would starve a genuine re-fetch forever.
            txn.keepOwnerShared = true;
            modStats.recallsSent += 1;
            sendToProc(MsgKind::RecallShared, cm.lineAddr, entry.owner,
                       queue.now(), entry.seq + 1);
            return;
        }
        return;
    }

    // GetExclusive
    switch (entry.state) {
      case DirState::Uncached:
        finish(cm.lineAddr, reserveRead(), false);
        return;

      case DirState::Shared: {
        entry.presence &= ~bitOf(req);
        if (entry.presence == 0) {
            finish(cm.lineAddr, reserveRead(), false);
            return;
        }
        unsigned sharers = 0;
        for (ProcId p = 0; p < cfg.numProcs; ++p) {
            if (entry.presence & bitOf(p)) {
                sendToProc(MsgKind::Invalidate, cm.lineAddr, p, queue.now(),
                           entry.seq + 1);
                ++sharers;
            }
        }
        modStats.invalidatesSent += sharers;
        txn.acksLeft = sharers;
        txn.memReadDone = true;
        txn.dataReadyTick = reserveRead();
        return;
      }

      case DirState::Exclusive:
        if (entry.owner == req && cm.seq <= entry.seq) {
            // The registered owner has not surrendered this grant (its
            // floor is not past it), so this is no eviction race: the
            // grant was lost in flight or this Get is a duplicate.
            // Re-grant idempotently with the SAME seq so a copy installed
            // from either reply surrenders consistently.
            txns.erase(cm.lineAddr);
            sendToProc(MsgKind::DataReplyExclusive, cm.lineAddr, req,
                       reserveRead(), entry.seq);
            return;
        }
        txn.waitingData = true;
        txn.owner = entry.owner;
        txn.keepOwnerShared = false;
        if (entry.owner != req) {
            modStats.recallsSent += 1;
            sendToProc(MsgKind::RecallExclusive, cm.lineAddr, entry.owner,
                       queue.now(), entry.seq + 1);
        }
        return;
    }
}

void
MemoryModule::handleDataArrival(Addr line_addr, bool via_flush)
{
    Txn &txn = txns.at(line_addr);
    MCSIM_ASSERT(txn.waitingData, "data arrival without recall");
    txn.waitingData = false;
    const bool owner_shares = txn.keepOwnerShared && via_flush;
    // The arriving line is written to memory and streamed to the requester
    // in one reservation.
    finish(line_addr, reserveRead(), owner_shares);
}

void
MemoryModule::handleInvAck(Addr line_addr)
{
    auto it = txns.find(line_addr);
    if (it == txns.end() || it->second.acksLeft == 0) {
        modStats.staleMessages += 1;
        return;
    }
    Txn &txn = it->second;
    txn.acksLeft -= 1;
    if (txn.acksLeft == 0) {
        MCSIM_ASSERT(txn.memReadDone, "acks complete before read issued");
        finish(line_addr, std::max(queue.now(), txn.dataReadyTick), false);
    }
}

void
MemoryModule::finish(Addr line_addr, Tick reply_tick, bool owner_shares)
{
    queue.schedule(
        reply_tick,
        [this, line_addr, owner_shares]() {
            Txn &txn = txns.at(line_addr);
            DirEntry &entry = dir[line_addr];
            const ProcId req = txn.requester;

            entry.seq += 1;  // this grant's sequence number
            if (txn.reqKind == MsgKind::GetShared) {
                if (entry.state == DirState::Exclusive)
                    entry.presence = 0;
                entry.state = DirState::Shared;
                entry.presence |= bitOf(req);
                if (owner_shares)
                    entry.presence |= bitOf(txn.owner);
                sendToProc(MsgKind::DataReplyShared, line_addr, req,
                           queue.now(), entry.seq);
            } else {
                entry.state = DirState::Exclusive;
                entry.owner = req;
                entry.presence = bitOf(req);
                sendToProc(MsgKind::DataReplyExclusive, line_addr, req,
                           queue.now(), entry.seq);
            }
            modStats.requests += 1;
            if (checker)
                checker->onDirectoryEvent(moduleId, line_addr);

            std::vector<Waiter> waiters = std::move(txn.waiters);
            txns.erase(line_addr);
            if (chooser && !waiters.empty()) {
                // DirService choice point: which parked waiter the
                // reopened line services first. The runners-up re-park
                // behind the new transaction, where the next reopening
                // chooses again, so one pick here reaches every order.
                std::vector<ChoiceOption> options;
                options.reserve(waiters.size());
                for (const Waiter &w : waiters)
                    options.push_back(
                        ChoiceOption{line_addr, w.msg.payload.proc});
                const unsigned pick = chooser->choose(
                    ChoiceKind::DirService, options.data(),
                    static_cast<unsigned>(options.size()));
                MCSIM_ASSERT(pick < waiters.size(),
                             "dir service choice %u of %zu", pick,
                             waiters.size());
                if (pick > 0) {
                    std::rotate(waiters.begin(), waiters.begin() + pick,
                                waiters.begin() + pick + 1);
                }
            }
            for (auto &w : waiters) {
                // Per-segment delay: a request re-queued behind the next
                // transaction for the line records each segment separately.
                modStats.queueHist.record(queue.now() - w.arrival);
                if (tracer) {
                    tracer->span(obs::Track::Module, moduleId,
                                 obs::SpanKind::DirQueue, w.arrival,
                                 queue.now() - w.arrival, line_addr);
                }
                handleRequest(std::move(w.msg));
            }
        },
        EventQueue::prioDeliver);
}

} // namespace mcsim::mem
