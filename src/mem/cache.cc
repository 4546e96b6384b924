#include "mem/cache.hh"

#include <algorithm>

#include "check/checker.hh"
#include "net/iface_buffer.hh"
#include "sim/logging.hh"

namespace mcsim::mem
{

void
CacheParams::validate() const
{
    if (!isPowerOf2(lineBytes) || lineBytes < 8)
        fatal("cache line size must be a power of two >= 8 (got %u)",
              lineBytes);
    if (assoc == 0)
        fatal("cache associativity must be nonzero");
    if (cacheBytes % (lineBytes * assoc) != 0)
        fatal("cache size %u not divisible by line*assoc (%u)", cacheBytes,
              lineBytes * assoc);
    if (!isPowerOf2(numSets()))
        fatal("cache set count %u must be a power of two", numSets());
    if (numMshrs == 0)
        fatal("cache needs at least one MSHR");
}

Cache::Cache(EventQueue &eq, ProcId proc, const CacheParams &params,
             Port &port, unsigned num_modules)
    : queue(eq), procId(proc), cfg(params), out(port),
      numModules(num_modules), lines(cfg.numSets() * cfg.assoc),
      mshrs(cfg.numMshrs)
{
    cfg.validate();
    if (num_modules == 0)
        fatal("cache needs at least one memory module");
}

std::uint32_t
Cache::setOf(Addr line_addr) const
{
    return static_cast<std::uint32_t>((line_addr / cfg.lineBytes) &
                                      (cfg.numSets() - 1));
}

ModuleId
Cache::moduleOf(Addr line_addr) const
{
    return static_cast<ModuleId>((line_addr / cfg.lineBytes) % numModules);
}

Cache::Line *
Cache::findLine(Addr line_addr)
{
    const std::uint32_t set = setOf(line_addr);
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        Line &line = lines[set * cfg.assoc + w];
        if (line.state != LineState::Invalid && line.lineAddr == line_addr)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

Cache::Mshr *
Cache::findMshr(Addr line_addr)
{
    for (auto &m : mshrs)
        if (m.valid && m.lineAddr == line_addr)
            return &m;
    return nullptr;
}

void
Cache::accountMshrs(int delta)
{
    const Tick now = queue.now();
    cacheStats.mshrBusyCycles += mshrBusy * (now - mshrStamp);
    mshrStamp = now;
    mshrBusy = static_cast<unsigned>(static_cast<int>(mshrBusy) + delta);
}

Cache::Mshr *
Cache::allocMshr()
{
    for (auto &m : mshrs)
        if (!m.valid)
            return &m;
    return nullptr;
}

unsigned
Cache::freeMshrs() const
{
    unsigned n = 0;
    for (const auto &m : mshrs)
        if (!m.valid)
            ++n;
    return n;
}

Cache::LineState
Cache::lineState(Addr addr) const
{
    const Line *line = findLine(lineOf(addr));
    return line ? line->state : LineState::Invalid;
}

unsigned
Cache::validLineCount() const
{
    unsigned n = 0;
    for (const auto &line : lines)
        if (line.state == LineState::Shared || line.state == LineState::Modified)
            ++n;
    return n;
}

std::vector<std::pair<Addr, Cache::LineState>>
Cache::validLines() const
{
    std::vector<std::pair<Addr, LineState>> out;
    for (const auto &line : lines) {
        if (line.state == LineState::Shared ||
            line.state == LineState::Modified) {
            out.emplace_back(line.lineAddr, line.state);
        }
    }
    return out;
}

std::vector<Cache::MshrView>
Cache::pendingMshrs() const
{
    std::vector<MshrView> out;
    for (const auto &m : mshrs) {
        if (!m.valid)
            continue;
        out.push_back(MshrView{m.lineAddr, m.exclusive, m.replyReceived,
                               m.issueTick, m.attempts});
    }
    return out;
}

Cache::Line *
Cache::pickVictim(std::uint32_t set)
{
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        Line &line = lines[set * cfg.assoc + w];
        if (line.state == LineState::Invalid)
            return &line;
        if (line.state == LineState::Pending)
            continue;
        if (!victim || line.lru < victim->lru)
            victim = &line;
    }
    return victim;
}

void
Cache::bumpGrantFloor(Addr line_addr, std::uint32_t seq)
{
    const Addr line_no = line_addr / cfg.lineBytes;
    std::uint32_t &floor =
        grantFloor[line_no / floorPageLines].floor[line_no % floorPageLines];
    floor = std::max(floor, seq);
}

std::uint32_t
Cache::grantFloorOf(Addr line_addr) const
{
    const Addr line_no = line_addr / cfg.lineBytes;
    auto it = grantFloor.find(line_no / floorPageLines);
    return it == grantFloor.end()
               ? 0
               : it->second.floor[line_no % floorPageLines];
}

void
Cache::markInvalidated(Addr line_addr)
{
    const Addr line_no = line_addr / cfg.lineBytes;
    grantFloor[line_no / floorPageLines].invalidated |=
        static_cast<std::uint16_t>(1u << (line_no % floorPageLines));
}

void
Cache::evict(Line &line)
{
    MCSIM_ASSERT(line.state == LineState::Shared ||
                     line.state == LineState::Modified,
                 "evicting line in bad state");
    // The grant this copy was installed under is surrendered: a reply at
    // or below its seq still in flight is a stale duplicate that must not
    // satisfy a later miss on this line, and the next Get* for the line
    // tells the directory the grant is gone (its floor passes the seq).
    bumpGrantFloor(line.lineAddr, line.seq + 1);
    if (line.state == LineState::Modified) {
        // Exclusive lines always surrender via Writeback so the directory
        // never waits forever on a recall (see DESIGN.md).
        cacheStats.writebacks += 1;
        sendRequest(MsgKind::Writeback, line.lineAddr, false, 0, line.seq);
    }
    // Clean (Shared) lines are dropped silently; the directory's stale
    // presence bit costs at worst one spurious Invalidate later.
    const Addr line_addr = line.lineAddr;
    line.state = LineState::Invalid;
    line.lineAddr = invalidAddr;
    if (checker)
        checker->onCacheLineEvent(procId, line_addr);
}

void
Cache::sendRequest(MsgKind kind, Addr line_addr, bool bypass_eligible,
                   Tick delay, std::uint32_t seq)
{
    NetMsg msg;
    msg.src = procId;
    msg.dst = moduleOf(line_addr);
    msg.bytes = messageBytes(kind, cfg.lineBytes);
    msg.bypassEligible = bypass_eligible;
    msg.payload = CoherenceMsg{kind, line_addr, procId, seq};
    if (checker)
        checker->onProtocolMessage(msg.payload, /*to_memory=*/true);
    if (delay == 0) {
        out.send(std::move(msg));
    } else {
        queue.scheduleIn(
            delay, [this, m = msg]() mutable { out.send(std::move(m)); },
            EventQueue::prioDeliver);
    }
}

void
Cache::launchMiss(Line &way_line, std::uint32_t set, Addr line_addr,
                  bool exclusive, bool is_prefetch, std::uint64_t cookie,
                  bool bypass_eligible, bool count_inval)
{
    Mshr *mshr = allocMshr();
    MCSIM_ASSERT(mshr != nullptr, "launchMiss without free MSHR");

    if (way_line.state != LineState::Invalid)
        evict(way_line);
    // One page lookup yields the floor and takes the invalidation flag.
    std::uint32_t floor = 0;
    bool was_invalidated = false;
    const Addr line_no = line_addr / cfg.lineBytes;
    if (auto it = grantFloor.find(line_no / floorPageLines);
        it != grantFloor.end()) {
        const Addr slot = line_no % floorPageLines;
        floor = it->second.floor[slot];
        was_invalidated = ((it->second.invalidated >> slot) & 1u) != 0;
        it->second.invalidated &= static_cast<std::uint16_t>(~(1u << slot));
    }

    way_line.lineAddr = line_addr;
    way_line.state = LineState::Pending;
    way_line.lru = queue.now();

    mshr->valid = true;
    accountMshrs(+1);
    mshr->lineAddr = line_addr;
    mshr->exclusive = exclusive;
    mshr->prefetch = is_prefetch;
    mshr->set = set;
    mshr->way = static_cast<std::uint32_t>(&way_line - &lines[set * cfg.assoc]);
    mshr->cookies.clear();
    mshr->issueTick = queue.now();
    mshr->replyReceived = false;
    mshr->completed = false;
    mshr->completionTick = 0;
    mshr->freeTick = 0;
    mshr->deferredInvalidate = false;
    mshr->deferredRecallExclusive = false;
    mshr->deferredRecallShared = false;
    mshr->deferredRecallSeq = 0;
    mshr->replySeq = 0;
    mshr->minAcceptSeq = floor;
    mshr->attempts = 0;
    mshr->retryGen = 0;
    if (!is_prefetch)
        mshr->cookies.push_back(cookie);

    if (was_invalidated && !is_prefetch && count_inval) {
        cacheStats.invalidationMisses += 1;
    }

    sendRequest(exclusive ? MsgKind::GetExclusive : MsgKind::GetShared,
                line_addr, bypass_eligible, cfg.missHandleCycles, floor);
    if (plan && plan->config().retryTimeoutCycles > 0)
        armRetry(*mshr, cfg.missHandleCycles + retryDelay(line_addr, 0));
}

AccessOutcome
Cache::access(Addr addr, AccessType type, std::uint64_t cookie)
{
    const Addr line_addr = lineOf(addr);
    const bool wants_excl = needsExclusive(type);

    // Statistics are recorded on the first (non-Blocked) attempt outcome;
    // Blocked attempts will be retried and counted then.
    auto count = [&](bool hit) {
        switch (type) {
          case AccessType::Load:
          case AccessType::LoadOwn:
            cacheStats.loads += 1;
            cacheStats.loadHits += hit ? 1 : 0;
            break;
          case AccessType::Store:
            cacheStats.stores += 1;
            cacheStats.storeHits += hit ? 1 : 0;
            break;
          case AccessType::SyncLoad:
          case AccessType::SyncRmw:
          case AccessType::SyncStore:
            cacheStats.syncAccesses += 1;
            cacheStats.syncHits += hit ? 1 : 0;
            break;
        }
    };

    if (Line *line = findLine(line_addr)) {
        if (line->state == LineState::Modified ||
            (line->state == LineState::Shared && !wants_excl)) {
            line->lru = queue.now();
            count(true);
            return AccessOutcome::Hit;
        }

        if (line->state == LineState::Shared && wants_excl) {
            // Write to a read-held line: invalidate the local copy and
            // refetch with write permission -- a write miss (paper 3.3).
            if (allocMshr() != nullptr) {
                count(false);
                bumpGrantFloor(line_addr, line->seq + 1);
                line->state = LineState::Invalid;
                line->lineAddr = invalidAddr;
                const std::uint32_t set = setOf(line_addr);
                launchMiss(*line, set, line_addr, true, false, cookie,
                           false, !isSync(type));
                return AccessOutcome::Miss;
            }
            cacheStats.blockedAccesses += 1;
            return AccessOutcome::Blocked;
        }

        // Pending fill in this set for this line.
        MCSIM_ASSERT(line->state == LineState::Pending,
                     "unexpected line state");
        Mshr *mshr = findMshr(line_addr);
        MCSIM_ASSERT(mshr != nullptr, "pending line without MSHR");
        if (wants_excl && !mshr->exclusive) {
            // Store onto an in-flight read fetch: must wait, then upgrade.
            cacheStats.blockedAccesses += 1;
            return AccessOutcome::Blocked;
        }
        count(false);
        cacheStats.mergedAccesses += 1;
        if (mshr->prefetch) {
            mshr->prefetch = false;  // becomes a demand fetch
            cacheStats.prefetchesUseful += 1;
        }
        if (mshr->completed) {
            // Reply already processed; this consumer completes when the
            // fill fully settles.
            fireCompletion(cookie, std::max(queue.now(), mshr->freeTick));
        } else {
            mshr->cookies.push_back(cookie);
        }
        return AccessOutcome::Merged;
    }

    // True miss.
    if (allocMshr() == nullptr) {
        cacheStats.blockedAccesses += 1;
        return AccessOutcome::Blocked;
    }
    const std::uint32_t set = setOf(line_addr);
    Line *victim = pickVictim(set);
    if (!victim) {
        cacheStats.blockedAccesses += 1;
        return AccessOutcome::Blocked;
    }
    count(false);
    // Load requests are bypass-eligible; the port honours it under WO2.
    const bool bypass = !wants_excl;
    launchMiss(*victim, set, line_addr, wants_excl, false, cookie, bypass,
               !isSync(type));
    if (cfg.nextLinePrefetch && !isSync(type))
        prefetch(line_addr + cfg.lineBytes, false);
    return AccessOutcome::Miss;
}

bool
Cache::prefetch(Addr addr, bool exclusive)
{
    const Addr line_addr = lineOf(addr);
    if (Line *line = findLine(line_addr)) {
        // Present (in any state) or already being fetched: nothing to do.
        // A non-binding prefetch never invalidates a valid copy.
        (void)line;
        return false;
    }
    if (allocMshr() == nullptr)
        return false;
    const std::uint32_t set = setOf(line_addr);
    Line *victim = pickVictim(set);
    if (!victim)
        return false;
    cacheStats.prefetchesIssued += 1;
    launchMiss(*victim, set, line_addr, exclusive, true, 0, false, false);
    return true;
}

void
Cache::fireCompletion(std::uint64_t cookie, Tick when)
{
    queue.schedule(
        std::max(when, queue.now()),
        [this, cookie]() {
            if (completionFn)
                completionFn(cookie);
        },
        EventQueue::prioCpu);
}

void
Cache::notifyRetry()
{
    if (retryFn)
        retryFn();
}

Tick
Cache::retryDelay(Addr line_addr, unsigned attempt)
{
    // First re-issue waits the plain timeout; later ones add bounded
    // exponential backoff with seed-derived jitter so colliding
    // retries decohere instead of hammering the directory in lockstep.
    const Tick timeout = plan->config().retryTimeoutCycles;
    if (chooser) {
        // RetryDelay choice point: under model checking the stretch is
        // scheduler-chosen instead of seed-jittered, so prompt and
        // delayed re-issue orders are both explored.
        const ChoiceOption options[2] = {ChoiceOption{line_addr, 0},
                                         ChoiceOption{line_addr, 1}};
        const unsigned pick =
            chooser->choose(ChoiceKind::RetryDelay, options, 2);
        MCSIM_ASSERT(pick < 2, "retry delay choice %u", pick);
        return timeout * (1 + pick);
    }
    return attempt == 0
               ? timeout
               : timeout + plan->backoffCycles(procId, attempt);
}

void
Cache::armRetry(Mshr &mshr, Tick delay)
{
    const std::uint64_t gen = ++retrySeq;
    mshr.retryGen = gen;
    queue.scheduleIn(
        std::max<Tick>(delay, 1),
        [this, line_addr = mshr.lineAddr, gen]() {
            retryFire(line_addr, gen);
        },
        EventQueue::prioDefault);
}

void
Cache::retryFire(Addr line_addr, std::uint64_t gen)
{
    Mshr *mshr = findMshr(line_addr);
    if (!mshr || mshr->retryGen != gen || mshr->replyReceived)
        return;  // superseded timer, or the reply made it after all
    mshr->attempts += 1;
    cacheStats.retries += 1;
    if (tracer) {
        tracer->span(obs::Track::Cache, procId,
                     obs::SpanKind::FaultRetry, queue.now(), 1,
                     line_addr);
    }
    sendRequest(mshr->exclusive ? MsgKind::GetExclusive
                                : MsgKind::GetShared,
                line_addr, false, 0, grantFloorOf(line_addr));
    armRetry(*mshr, retryDelay(line_addr, mshr->attempts));
}

void
Cache::handleResponse(NetMsg &&msg)
{
    const CoherenceMsg &cm = msg.payload;
    switch (cm.kind) {
      case MsgKind::DataReplyShared:
      case MsgKind::DataReplyExclusive: {
        Mshr *mshr = findMshr(cm.lineAddr);
        const bool excl = cm.kind == MsgKind::DataReplyExclusive;
        // Duplicated or long-delayed grants can arrive with no (or the
        // wrong) transaction waiting, or after an Invalidate/Recall
        // already revoked them (minAcceptSeq). Discarding is safe -- the
        // protocol is timing-only and the timeout retry recovers the miss.
        if (!mshr || mshr->replyReceived || excl != mshr->exclusive ||
            cm.seq < mshr->minAcceptSeq) {
            cacheStats.staleReplies += 1;
            break;
        }
        mshr->replyReceived = true;
        mshr->replySeq = cm.seq;
        const Tick completion = queue.now() + cfg.fillCycles;
        const Tick latency = completion - mshr->issueTick;
        cacheStats.missLatencySum += latency;
        cacheStats.missLatencyCount += 1;
        cacheStats.missLatencyMax =
            std::max<Tick>(cacheStats.missLatencyMax, latency);
        cacheStats.missLatencyHist.record(latency);
        if (tracer) {
            tracer->span(obs::Track::Cache, procId,
                         obs::SpanKind::MissService, mshr->issueTick,
                         latency, mshr->lineAddr);
        }
        const Tick install = queue.now() + cfg.lineWords();
        mshr->completionTick = completion;
        mshr->freeTick = std::max(completion, install);
        // Fire completions for consumers attached so far. Scheduled ahead
        // of the settle event so that, when completion and settle land on
        // the same tick, consumers are marked complete before the MSHR is
        // reclaimed.
        queue.schedule(
            completion,
            [this, line_addr = cm.lineAddr]() {
                Mshr *m = findMshr(line_addr);
                if (!m || m->completed)
                    return;
                m->completed = true;
                std::vector<std::uint64_t> cookies;
                cookies.swap(m->cookies);
                for (std::uint64_t c : cookies) {
                    if (completionFn)
                        completionFn(c);
                }
            },
            EventQueue::prioDeliver);
        queue.schedule(
            mshr->freeTick,
            [this, line_addr = cm.lineAddr]() { settleFill(line_addr); },
            EventQueue::prioDeliver);
        break;
      }

      case MsgKind::Invalidate: {
        cacheStats.invalidationsReceived += 1;
        // The stamp is the invalidating transaction's grant seq: every
        // grant to us ordered before it is now revoked, even ones still in
        // flight that no live MSHR remembers.
        bumpGrantFloor(cm.lineAddr, cm.seq);
        if (Mshr *mshr = findMshr(cm.lineAddr)) {
            if (mshr->replyReceived) {
                // The invalidation targets the line we are installing;
                // apply it once the fill settles.
                mshr->deferredInvalidate = true;
            } else {
                // Stale presence bit: our old copy is long gone and our
                // own fetch is ordered after the invalidating transaction.
                // A delayed grant for our fetch could still overtake this
                // revocation; refuse anything older than its grant.
                mshr->minAcceptSeq = std::max(mshr->minAcceptSeq, cm.seq);
                sendRequest(MsgKind::InvAck, cm.lineAddr, false, 0);
            }
            break;
        }
        if (ignoreNextInvalidate && findLine(cm.lineAddr) != nullptr) {
            // Fault injection: acknowledge but keep the stale copy.
            ignoreNextInvalidate = false;
            sendRequest(MsgKind::InvAck, cm.lineAddr, false, 0);
            break;
        }
        applyInvalidate(cm.lineAddr);
        sendRequest(MsgKind::InvAck, cm.lineAddr, false, 0);
        break;
      }

      case MsgKind::RecallShared:
      case MsgKind::RecallExclusive: {
        const bool excl = cm.kind == MsgKind::RecallExclusive;
        bumpGrantFloor(cm.lineAddr, cm.seq);
        if (Mshr *mshr = findMshr(cm.lineAddr)) {
            if (mshr->replyReceived) {
                if (cm.seq <= mshr->replySeq) {
                    // The recall targets a grant older than the one we
                    // just accepted; its transaction already closed.
                    cacheStats.staleReplies += 1;
                    break;
                }
                mshr->deferredRecallSeq = cm.seq;
                if (excl)
                    mshr->deferredRecallExclusive = true;
                else
                    mshr->deferredRecallShared = true;
            } else {
                // We no longer own the line (writeback in flight, or our
                // grant was lost); refuse any grant older than the
                // recalling transaction's.
                mshr->minAcceptSeq = std::max(mshr->minAcceptSeq, cm.seq);
                sendRequest(MsgKind::RecallStale, cm.lineAddr, false, 0,
                            cm.seq);
            }
            break;
        }
        Line *line = findLine(cm.lineAddr);
        if (!line) {
            sendRequest(MsgKind::RecallStale, cm.lineAddr, false, 0, cm.seq);
            break;
        }
        if (line->seq >= cm.seq) {
            // Long-delayed recall: the recalling transaction already
            // completed (its data arrived via the racing writeback) and
            // this copy comes from a strictly later grant. Flushing it
            // would revoke a current grant; discard, and send nothing --
            // that transaction needs no reply.
            cacheStats.staleReplies += 1;
            break;
        }
        if (line->state != LineState::Modified)
            surrenderClean(*line, cm.seq);
        else
            applyRecall(cm.lineAddr, excl);
        break;
      }

      case MsgKind::Nack: {
        // The directory refused our Get* (only a fault plan sets its
        // NACK threshold). Re-arm the retry timer at the pure backoff
        // delay (no extra timeout -- the directory definitively has no
        // grant in flight for us).
        MCSIM_ASSERT(plan != nullptr, "Nack without a fault plan");
        Mshr *mshr = findMshr(cm.lineAddr);
        if (!mshr || mshr->replyReceived) {
            cacheStats.staleReplies += 1;
            break;
        }
        cacheStats.nacksReceived += 1;
        mshr->attempts += 1;
        armRetry(*mshr,
                 plan->backoffCycles(procId,
                                     std::max(mshr->attempts, 1u)));
        break;
      }

      case MsgKind::GetShared:
      case MsgKind::GetExclusive:
      case MsgKind::Writeback:
      case MsgKind::InvAck:
      case MsgKind::RecallStale:
      case MsgKind::FlushData:
        // Request-network kinds; the response network never carries them
        // (validateMessage rejects them at injection).
        unreachableMessage("cache", procId, cm.kind);
    }
}

void
Cache::applyInvalidate(Addr line_addr)
{
    Line *line = findLine(line_addr);
    if (!line)
        return;
    MCSIM_ASSERT(line->state == LineState::Shared,
                 "Invalidate for line in state %d",
                 static_cast<int>(line->state));
    line->state = LineState::Invalid;
    line->lineAddr = invalidAddr;
    markInvalidated(line_addr);
    if (checker)
        checker->onCacheLineEvent(procId, line_addr);
}

void
Cache::applyRecall(Addr line_addr, bool exclusive_recall)
{
    Line *line = findLine(line_addr);
    MCSIM_ASSERT(line && line->state == LineState::Modified,
                 "recall for line not in M state");
    cacheStats.recallsServed += 1;
    sendRequest(MsgKind::FlushData, line_addr, false, 0, line->seq);
    if (exclusive_recall) {
        line->state = LineState::Invalid;
        line->lineAddr = invalidAddr;
        markInvalidated(line_addr);
    } else {
        line->state = LineState::Shared;
    }
    if (checker)
        checker->onCacheLineEvent(procId, line_addr);
}

void
Cache::surrenderClean(Line &line, std::uint32_t recall_seq)
{
    // Only a clean copy is left of the grant under recall: no dirty data
    // to flush. RecallStale completes the transaction from memory's image
    // AND drops us from the presence set, so the copy must be surrendered
    // entirely -- keeping it Shared would leave it untracked and immune to
    // later invalidations.
    const Addr line_addr = line.lineAddr;
    line.state = LineState::Invalid;
    line.lineAddr = invalidAddr;
    markInvalidated(line_addr);
    if (checker)
        checker->onCacheLineEvent(procId, line_addr);
    sendRequest(MsgKind::RecallStale, line_addr, false, 0, recall_seq);
}

void
Cache::settleFill(Addr line_addr)
{
    Mshr *mshr = findMshr(line_addr);
    MCSIM_ASSERT(mshr != nullptr && mshr->replyReceived,
                 "settleFill without received reply");
    Line &line = lines[mshr->set * cfg.assoc + mshr->way];
    MCSIM_ASSERT(line.state == LineState::Pending &&
                     line.lineAddr == line_addr,
                 "settleFill on non-pending line");

    line.state = mshr->exclusive ? LineState::Modified : LineState::Shared;
    line.lru = queue.now();
    line.seq = mshr->replySeq;

    const bool deferred_inv = mshr->deferredInvalidate;
    const bool deferred_recall_excl = mshr->deferredRecallExclusive;
    const bool deferred_recall_shared = mshr->deferredRecallShared;
    const std::uint32_t deferred_recall_seq = mshr->deferredRecallSeq;
    MCSIM_ASSERT(mshr->completed || mshr->cookies.empty(),
                 "freeing MSHR with unfired consumers");
    mshr->valid = false;
    accountMshrs(-1);

    if (deferred_inv) {
        applyInvalidate(line_addr);
        sendRequest(MsgKind::InvAck, line_addr, false, 0);
    } else if (deferred_recall_excl || deferred_recall_shared) {
        // A Shared fill caught by a (self-)recall surrenders cleanly.
        if (line.state != LineState::Modified)
            surrenderClean(line, deferred_recall_seq);
        else
            applyRecall(line_addr, deferred_recall_excl);
    } else if (checker) {
        // Deferred paths audit inside applyInvalidate/applyRecall.
        checker->onCacheLineEvent(procId, line_addr);
    }

    notifyRetry();
}

} // namespace mcsim::mem
