#include "edgepcc/serve/serve_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <numeric>
#include <optional>
#include <utility>

#include "edgepcc/common/trace.h"
#include "edgepcc/parallel/parallel_for.h"

namespace edgepcc {
namespace serve {

namespace {

/** Arrival tolerance: frame f "has arrived" at T when
 *  offset + f/fps <= T + kArrivalEps (matches StreamSession). */
constexpr double kArrivalEps = 1e-9;

/** Folded into a tenant's stream key on failover: the forced
 *  keyframe makes the restored stream's bytes diverge from any
 *  uninterrupted stream, so its cache lineage must diverge too. */
constexpr std::uint64_t kFailoverSalt = 0xfa110f3f5a17ull;

}  // namespace

const char *
deadlineClassName(DeadlineClass deadline_class)
{
    switch (deadline_class) {
      case DeadlineClass::kInteractive:
        return "interactive";
      case DeadlineClass::kStandard:
        return "standard";
      case DeadlineClass::kBulk:
        return "bulk";
    }
    return "unknown";
}

double
deadlineClassSlack(DeadlineClass deadline_class)
{
    switch (deadline_class) {
      case DeadlineClass::kInteractive:
        return 1.0;
      case DeadlineClass::kStandard:
        return 2.0;
      case DeadlineClass::kBulk:
        return 4.0;
    }
    return 2.0;
}

const char *
serveOutcomeName(ServeOutcome outcome)
{
    switch (outcome) {
      case ServeOutcome::kEncoded:
        return "encoded";
      case ServeOutcome::kCacheHit:
        return "cache-hit";
      case ServeOutcome::kDropped:
        return "dropped";
      case ServeOutcome::kFaulted:
        return "faulted";
      case ServeOutcome::kQuarantined:
        return "quarantined";
      case ServeOutcome::kShed:
        return "shed";
    }
    return "unknown";
}

const char *
rejectionReasonName(RejectionReason reason)
{
    switch (reason) {
      case RejectionReason::kNone:
        return "";
      case RejectionReason::kAdmissionCap:
        return "admission-cap";
      case RejectionReason::kExceedsDeviceCapacity:
        return "exceeds-device-capacity";
      case RejectionReason::kFailoverShed:
        return "failover-shed";
    }
    return "unknown";
}

double
FleetStats::utilization() const
{
    return makespan_s > 0.0 ? device_busy_s / makespan_s : 0.0;
}

double
FleetStats::sessionsPerDevice() const
{
    const double util = utilization();
    return util > 0.0 ? static_cast<double>(admitted) / util : 0.0;
}

double
jainFairnessIndex(const std::vector<double> &shares)
{
    if (shares.empty())
        return 1.0;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (double x : shares) {
        sum += x;
        sum_sq += x * x;
    }
    if (sum_sq <= 0.0)
        return 1.0;
    return (sum * sum) /
           (static_cast<double>(shares.size()) * sum_sq);
}

std::string
traceString(const ServeReport &report)
{
    std::string out;
    for (const ServeTraceEntry &entry : report.trace) {
        if (!out.empty())
            out += ' ';
        out += entry.tenant;
        out += std::to_string(entry.frame_id);
        if (entry.outcome == ServeOutcome::kCacheHit)
            out += '*';
        if (entry.outcome == ServeOutcome::kDropped)
            out += '-';
        if (entry.outcome == ServeOutcome::kFaulted)
            out += '~';
        if (entry.outcome == ServeOutcome::kQuarantined)
            out += '^';
        if (entry.outcome == ServeOutcome::kShed)
            out += '#';
        if (entry.deadline_missed)
            out += '!';
    }
    return out;
}

std::string
recoveryTraceString(const ServeReport &report)
{
    std::string out;
    for (const FailoverRecord &record : report.failovers) {
        if (!out.empty())
            out += "; ";
        out += "crash r" + std::to_string(record.replica) + " @" +
               std::to_string(std::llround(record.at_s * 1e6)) +
               "us:";
        for (const FailoverMove &move : record.moves) {
            out += ' ' + move.tenant + "->";
            if (move.to_replica < 0) {
                out += "shed";
            } else {
                out += 'r' + std::to_string(move.to_replica);
                if (move.restored_from_checkpoint)
                    out += "+ckpt";
            }
        }
    }
    return out;
}

// -----------------------------------------------------------------
// ServeScheduler
// -----------------------------------------------------------------

namespace {

/** A tenant's latest checkpoint: everything failover needs to
 *  resume the stream on another replica. */
struct TenantCheckpoint {
    VideoEncoder::StateSnapshot state;
    std::uint64_t stream_key = 0;
    std::uint32_t served = 0;  ///< frames served when taken
};

/** Scheduler-internal per-tenant state. */
struct TenantState {
    std::size_t input_index = 0;
    const TenantSpec *spec = nullptr;
    TenantReport *report = nullptr;

    VideoEncoder encoder;
    std::size_t next_frame = 0;
    bool done = false;

    double deficit_s = 0.0;
    double quantum_s = 0.0;  ///< config quantum * weight
    double budget_s = 0.0;   ///< per-frame completion budget
    std::uint64_t stream_key = 0;

    /** Failover gap: invisible to the new replica's scheduler until
     *  its clock reaches the crash time (causality). */
    double resume_at_s = 0.0;
    /** Crash time awaiting this tenant's first post-failover
     *  completion (MTTR sample); < 0 when not recovering. */
    double recovering_since_s = -1.0;

    CircuitBreaker breaker;
    std::optional<TenantCheckpoint> checkpoint;

    TenantState(const TenantSpec &tenant_spec,
                const CircuitBreakerConfig &breaker_config)
        : spec(&tenant_spec), encoder(tenant_spec.codec),
          next_frame(0), breaker(breaker_config)
    {
    }

    double
    arrivalOf(std::size_t frame) const
    {
        return spec->arrival_offset_s +
               static_cast<double>(frame) / spec->fps;
    }

    /** Arrived-unserved frame count at virtual time `now_s`. */
    std::size_t
    backlogAt(double now_s) const
    {
        if (done || next_frame >= spec->frames.size())
            return 0;
        const double since =
            now_s - spec->arrival_offset_s + kArrivalEps;
        if (since < 0.0)
            return 0;
        std::size_t last = static_cast<std::size_t>(
            since * spec->fps);
        last = std::min(last, spec->frames.size() - 1);
        return last >= next_frame ? last - next_frame + 1 : 0;
    }

    bool
    poisoned(std::uint32_t frame_id) const
    {
        for (std::uint32_t fault : spec->fault_frames) {
            if (fault == frame_id)
                return true;
        }
        return false;
    }
};

/** One device replica: its own virtual clock, DRR cursor and
 *  tenant placements. */
struct ReplicaState {
    int index = 0;
    double clock_s = 0.0;
    std::size_t cursor = 0;
    std::vector<TenantState *> tenants;
    std::size_t unfinished = 0;
    double admitted_utilization = 0.0;
    bool crashed = false;
    /** When a crashed replica rejoins (empty); +inf = permanent. */
    double revive_at_s = std::numeric_limits<double>::infinity();
};

/** One co-scheduled frame (at most one per tenant per batch). */
struct BatchItem {
    TenantState *tenant = nullptr;
    std::uint32_t frame_id = 0;
    std::uint64_t stream_key = 0;
    std::shared_ptr<const CacheEntry> hit;

    /** Dispatch faulted (oom window / poisoned frame): the frame
     *  never reaches the encoder. */
    bool faulted = false;
    Status fault_status;

    // Filled by runBatchItem, read after the batch has finished.
    Status status;  ///< default-constructed = OK
    EncodedFrame encoded;
    VideoEncoder::StateSnapshot state_after;
    bool have_snapshot = false;
};

/** Admission / failover priority: deadline class, then arrival
 *  offset, then input order. */
bool
admissionBefore(const TenantSpec &a, std::size_t ia,
                const TenantSpec &b, std::size_t ib)
{
    if (a.deadline_class != b.deadline_class)
        return a.deadline_class < b.deadline_class;
    if (a.arrival_offset_s != b.arrival_offset_s)
        return a.arrival_offset_s < b.arrival_offset_s;
    return ia < ib;
}

Status
validateServe(const ServeConfig &config,
              const std::vector<TenantSpec> &tenants)
{
    if (tenants.empty())
        return invalidArgument("ServeScheduler::run: no tenants");
    if (config.quantum_s <= 0.0)
        return invalidArgument(
            "ServeScheduler::run: quantum_s must be > 0");
    if (config.replicas < 1)
        return invalidArgument(
            "ServeScheduler::run: replicas must be >= 1");
    if (config.batch_max < 1)
        return invalidArgument(
            "ServeScheduler::run: batch_max must be >= 1, got " +
            std::to_string(config.batch_max));
    if (config.checkpoint_interval_frames < 0 ||
        config.checkpoint_cost_s < 0.0)
        return invalidArgument(
            "ServeScheduler::run: checkpoint interval/cost must "
            "be >= 0");
    for (const DeviceFaultEvent &event : config.faults.events) {
        if (event.replica < 0 || event.replica >= config.replicas)
            return invalidArgument(
                "ServeScheduler::run: fault event names replica " +
                std::to_string(event.replica) + " but the fleet has " +
                std::to_string(config.replicas) + " replicas");
    }
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantSpec &spec = tenants[i];
        if (spec.name.empty())
            return invalidArgument(
                "ServeScheduler::run: tenant without a name");
        if (spec.frames.empty())
            return invalidArgument("ServeScheduler::run: tenant '" +
                                   spec.name + "' has no frames");
        if (spec.fps <= 0.0 || spec.weight <= 0.0)
            return invalidArgument("ServeScheduler::run: tenant '" +
                                   spec.name +
                                   "' needs fps > 0 and weight > 0");
        if (spec.queue_capacity < 0)
            return invalidArgument(
                "ServeScheduler::run: tenant '" + spec.name +
                "' needs queue_capacity >= 0, got " +
                std::to_string(spec.queue_capacity));
        for (std::size_t j = 0; j < i; ++j) {
            if (tenants[j].name == spec.name)
                return invalidArgument(
                    "ServeScheduler::run: duplicate tenant name '" +
                    spec.name + "'");
        }
    }
    return Status();
}

/**
 * Runs one batch item on its tenant's encoder: a cache hit only
 * restores the encoder state, a miss encodes (and snapshots the
 * state for the cache). A throw becomes the item's status, so one
 * failed encode never cuts the rest of the batch short. The short
 * messages fit the string's inline buffer, so the handlers do not
 * allocate.
 */
void
runBatchItem(BatchItem &item, bool want_snapshot)
{
    TenantState &state = *item.tenant;
    try {
        if (item.hit) {
            state.encoder.restoreState(item.hit->state_after);
            return;
        }
        auto encoded =
            state.encoder.encode(state.spec->frames[item.frame_id]);
        if (!encoded.hasValue()) {
            item.status = encoded.status();
            return;
        }
        item.encoded = std::move(*encoded);
        if (want_snapshot) {
            item.state_after = state.encoder.snapshotState();
            item.have_snapshot = true;
        }
    } catch (const std::bad_alloc &) {
        item.status =
            Status(StatusCode::kResourceExhausted, "out of memory");
    } catch (...) {
        item.status = Status(StatusCode::kInternal, "task threw");
    }
}

/**
 * The state of one ServeScheduler::run. A run admits the tenants,
 * then plays rounds until every admitted stream is done, then
 * finishes the report. Each round picks the replica with the
 * lowest clock and crosses its fault boundary (a due crash hands
 * the round to failover recovery); otherwise it sheds stale frames,
 * picks a batch, encodes it and settles it on the replica's clock.
 */
struct FleetRun {
    const ServeConfig &config;
    const std::vector<TenantSpec> &tenants;

    const EdgeDeviceModel device_model{config.device};
    /** Read by the shared per-tenant latency hook: the load spec,
     *  and modelled seconds as the budget source (set in admit). */
    OverloadConfig latency_config;
    DeviceFaultInjector injector{config.faults};
    ThreadPool &pool = ThreadPool::global();
    ReferenceCache cache{config.cache_capacity};

    ServeReport report;
    std::vector<ReplicaState> replicas = std::vector<ReplicaState>(
        static_cast<std::size_t>(config.replicas));
    std::vector<TenantState> states;
    std::size_t unfinished = 0;
    std::vector<double> recovery_samples;

    FleetRun(const ServeConfig &serve_config,
             const std::vector<TenantSpec> &tenant_specs)
        : config(serve_config), tenants(tenant_specs)
    {
    }

    /**
     * Admission control: probe-encode each tenant's first frame to
     * estimate its share of a replica, then admit in deadline-class
     * priority order (earlier arrivals first within a class),
     * placing each tenant on the least-loaded replica that still
     * fits under the per-replica utilization cap. The probe uses a
     * scratch encoder, so the real per-tenant encoder state is
     * untouched.
     */
    Status
    admit()
    {
        latency_config.load = config.load;
        latency_config.budget_source = OverloadBudgetSource::kModelled;
        report.tenants.resize(tenants.size());
        report.fleet.sessions = tenants.size();
        report.fleet.replicas = replicas.size();
        for (std::size_t r = 0; r < replicas.size(); ++r)
            replicas[r].index = static_cast<int>(r);
        {
            ScopedTrace admission_trace("serve.admission");
            for (std::size_t i = 0; i < tenants.size(); ++i) {
                const TenantSpec &spec = tenants[i];
                TenantReport &tenant_report = report.tenants[i];
                tenant_report.name = spec.name;
                tenant_report.deadline_class = spec.deadline_class;
                tenant_report.weight = spec.weight;

                VideoEncoder probe(spec.codec);
                auto probed = probe.encode(spec.frames.front());
                if (!probed)
                    return Status(probed.status().code(),
                                  "serve: tenant '" + spec.name +
                                      "' frame 0 probe: " +
                                      probed.status().message());
                tenant_report.estimated_utilization =
                    device_model.evaluate(probed->profile)
                        .modelSeconds() *
                    spec.fps;
            }
        }

        std::vector<std::size_t> order(tenants.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [this](std::size_t a, std::size_t b) {
                             return admissionBefore(tenants[a], a,
                                                    tenants[b], b);
                         });
        for (std::size_t index : order) {
            TenantReport &tenant_report = report.tenants[index];
            const double util = tenant_report.estimated_utilization;
            if (util > config.admission_utilization_cap *
                           (1.0 + kArrivalEps)) {
                tenant_report.rejection_reason =
                    RejectionReason::kExceedsDeviceCapacity;
                continue;
            }
            const int best = leastLoadedFit(util, -1, 0.0);
            if (best < 0) {
                tenant_report.rejection_reason =
                    RejectionReason::kAdmissionCap;
                continue;
            }
            tenant_report.admitted = true;
            tenant_report.replica = best;
            replicas[static_cast<std::size_t>(best)]
                .admitted_utilization += util;
        }

        // Scheduler state, in admission order. The reserve keeps
        // the replicas' tenant pointers valid.
        states.reserve(tenants.size());
        for (std::size_t index : order) {
            const TenantSpec &spec = tenants[index];
            if (!report.tenants[index].admitted)
                continue;
            TenantState &state =
                states.emplace_back(spec, config.breaker);
            state.input_index = index;
            state.report = &report.tenants[index];
            state.quantum_s = config.quantum_s * spec.weight;
            state.budget_s =
                deadlineClassSlack(spec.deadline_class) / spec.fps;
            state.stream_key = codecConfigDigest(spec.codec);
            state.report->stats.frames = spec.frames.size();
            state.report->stats.deadline_s = state.budget_s;
            ReplicaState &replica =
                replicas[static_cast<std::size_t>(state.report->replica)];
            replica.tenants.push_back(&state);
            ++replica.unfinished;
        }
        report.fleet.admitted = states.size();
        report.fleet.rejected = tenants.size() - states.size();
        unfinished = states.size();
        return Status();
    }

    /**
     * Least-loaded replica that still fits `util` under the
     * per-replica cap, scanned in index order (strict `<` keeps
     * the lowest index on ties); -1 when none fits. A crashed
     * replica whose restart time has come is revived on the scan;
     * at admission nothing has crashed yet.
     */
    int
    leastLoadedFit(double util, int exclude, double now_s)
    {
        int best = -1;
        double best_util = 0.0;
        for (ReplicaState &replica : replicas) {
            if (replica.index == exclude)
                continue;
            if (replica.crashed) {
                if (replica.revive_at_s > now_s + kArrivalEps)
                    continue;
                replica.crashed = false;
                replica.clock_s =
                    std::max(replica.clock_s, replica.revive_at_s);
            }
            if (replica.admitted_utilization + util >
                config.admission_utilization_cap * (1.0 + kArrivalEps))
                continue;
            if (best < 0 || replica.admitted_utilization < best_util) {
                best = replica.index;
                best_util = replica.admitted_utilization;
            }
        }
        return best;
    }

    /**
     * Replicas take rounds in virtual-clock order (lowest clock
     * first, ties by index), which makes the fleet-wide trace a
     * pure function of the inputs. Null once every admitted stream
     * is done.
     */
    ReplicaState *
    pickReplica()
    {
        ReplicaState *chosen = nullptr;
        if (unfinished == 0)
            return chosen;
        for (ReplicaState &replica : replicas) {
            if (replica.crashed || replica.unfinished == 0)
                continue;
            if (chosen == nullptr || replica.clock_s < chosen->clock_s)
                chosen = &replica;
        }
        return chosen;  // non-null: unfinished tenants live somewhere
    }

    /** One DRR round on `rep`: fault boundary, stale-frame
     *  shedding, then pick, encode and settle one batch. */
    Status
    round(ReplicaState &rep)
    {
        double now_s = rep.clock_s;
        ++report.fleet.rounds;

        // Fault boundary: pending stalls jump the clock, then a due
        // crash takes the whole replica down.
        const double stall_s = injector.consumeStall(rep.index, now_s);
        if (stall_s > 0.0)
            now_s += stall_s;
        const int crash = injector.consumeCrash(rep.index, now_s);
        if (crash >= 0) {
            rep.clock_s = now_s;
            recover(rep, now_s,
                    injector.event(static_cast<std::size_t>(crash)));
            return Status();
        }

        for (TenantState *state : rep.tenants)
            dropStale(*state, now_s);
        rep.clock_s = now_s;
        if (unfinished == 0 || rep.unfinished == 0)
            return Status();

        bool any_backlog = false;
        std::vector<BatchItem> batch =
            pickBatch(rep, now_s, any_backlog);
        if (batch.empty()) {
            // All in overdraft: grant another round. Otherwise
            // nothing is dispatchable now, so jump to the next
            // event.
            if (!any_backlog)
                rep.clock_s = std::max(now_s, nextEventAt(rep, now_s));
            return Status();
        }
        if (Status encoded = encodeBatch(batch); !encoded.isOk())
            return encoded;
        settle(rep, now_s, batch);
        return Status();
    }

    /**
     * Oldest-drop backpressure, the StreamSession rule lifted
     * fleet-wide: keep the newest queue_capacity + 1 arrived frames
     * (the one being encoded plus the queue), shed the rest without
     * encoding them. Frames shed while the tenant's breaker is open
     * count as quarantined.
     */
    void
    dropStale(TenantState &state, double now_s)
    {
        if (now_s + kArrivalEps < state.resume_at_s)
            return;  // failover gap: frozen until the crash time
        const std::size_t window =
            static_cast<std::size_t>(state.spec->queue_capacity) + 1;
        for (std::size_t backlog = state.backlogAt(now_s);
             backlog > window; --backlog) {
            const bool quarantined =
                state.breaker.state() == BreakerState::kOpen;
            ServedFrame record;
            record.frame_id =
                static_cast<std::uint32_t>(state.next_frame);
            record.outcome = quarantined ? ServeOutcome::kQuarantined
                                         : ServeOutcome::kDropped;
            record.arrival_s = state.arrivalOf(state.next_frame);
            record.start_s = now_s;
            record.completion_s = now_s;
            if (quarantined) {
                ++state.report->stats.quarantined;
                ++report.recovery.quarantined_frames;
            } else {
                ++state.report->stats.dropped;
            }
            appendOutcome(state, std::move(record),
                          state.report->replica);
            ++state.next_frame;
        }
        finishIfDone(state);
    }

    /**
     * Selects up to batch_max backlogged tenants, one frame each,
     * starting at the round-robin cursor (which carries across
     * rounds so a cut batch resumes where it stopped).
     * `any_backlog` reports a tenant still repaying an overdraft:
     * a free re-round makes progress for it.
     */
    std::vector<BatchItem>
    pickBatch(ReplicaState &rep, double now_s, bool &any_backlog)
    {
        std::vector<BatchItem> batch;
        std::size_t examined = 0;
        std::size_t index = rep.cursor;
        for (; examined < rep.tenants.size(); ++examined, ++index) {
            TenantState &state =
                *rep.tenants[index % rep.tenants.size()];
            if (state.done)
                continue;
            if (now_s + kArrivalEps < state.resume_at_s)
                continue;  // failover gap: not yet visible here
            if (state.backlogAt(now_s) == 0) {
                // Idle tenants forfeit their deficit: DRR's classic
                // no-banking-while-empty rule.
                state.deficit_s = 0.0;
                continue;
            }
            state.deficit_s = std::min(
                state.deficit_s + state.quantum_s, state.quantum_s);
            state.report->stats.max_deficit_s = std::max(
                state.report->stats.max_deficit_s, state.deficit_s);
            if (state.deficit_s <= 0.0) {
                any_backlog = true;
                continue;
            }
            if (!state.breaker.allowRequest(now_s)) {
                // Quarantined: re-rounding cannot help; the clock
                // must reach the re-probe time (empty-batch jump).
                continue;
            }
            batch.push_back(dispatch(rep, state, now_s));
            if (batch.size() >=
                static_cast<std::size_t>(config.batch_max)) {
                ++examined;
                ++index;
                break;
            }
        }
        rep.cursor = index % rep.tenants.size();
        return batch;
    }

    /** Takes the tenant's next frame into the batch. A faulted
     *  frame never reaches the encoder, so neither the stream key
     *  nor the cache may see it. */
    BatchItem
    dispatch(const ReplicaState &rep, TenantState &state, double now_s)
    {
        BatchItem item;
        item.tenant = &state;
        item.frame_id = static_cast<std::uint32_t>(state.next_frame);
        const bool poisoned = state.poisoned(item.frame_id);
        item.faulted =
            injector.memoryExhausted(rep.index, now_s) || poisoned;
        if (item.faulted) {
            item.fault_status = resourceExhausted(
                "serve: tenant '" + state.spec->name + "' frame " +
                std::to_string(item.frame_id) + ": " +
                (poisoned ? "poisoned input frame"
                          : "replica " + std::to_string(rep.index) +
                                " memory exhausted"));
        } else {
            state.stream_key = chainStreamKey(
                state.stream_key,
                cloudDigest(state.spec->frames[state.next_frame]));
            item.stream_key = state.stream_key;
            if (config.cache_enabled)
                item.hit = cache.find(item.stream_key);
        }
        ++state.next_frame;
        return item;
    }

    /** The next event on an idle replica: an arrival, a failover
     *  resume point, or a breaker re-probe (-1 when none). */
    double
    nextEventAt(const ReplicaState &rep, double now_s) const
    {
        double next_event = -1.0;
        for (const TenantState *state : rep.tenants) {
            if (state->done)
                continue;
            double event_s;
            if (now_s + kArrivalEps < state->resume_at_s) {
                event_s = std::max(state->resume_at_s,
                                   state->arrivalOf(state->next_frame));
            } else if (state->backlogAt(now_s) > 0) {
                event_s = state->breaker.openUntil();
            } else {
                event_s = state->arrivalOf(state->next_frame);
            }
            if (next_event < 0.0 || event_s < next_event)
                next_event = event_s;
        }
        return next_event;
    }

    /**
     * Encodes a batch: its tenants run concurrently on the shared
     * pool through the claimed fan-out. Every tenant appears at
     * most once per batch, so no two items share an encoder, and
     * faulted dispatches never touch theirs. The batch is waited
     * on as a whole and settled in selection order, so which
     * thread ran which item changes no trace and no byte.
     */
    Status
    encodeBatch(std::vector<BatchItem> &batch)
    {
        {
            ScopedTrace batch_trace("serve.batch");
            const bool want_snapshot = config.cache_enabled;
            parallelForClaimed(
                batch.size(),
                [&batch, want_snapshot](std::size_t i) {
                    if (!batch[i].faulted)
                        runBatchItem(batch[i], want_snapshot);
                },
                pool);
        }
        for (const BatchItem &item : batch) {
            if (!item.status.isOk())
                return Status(item.status.code(),
                              "serve: tenant '" +
                                  item.tenant->spec->name +
                                  "' frame " +
                                  std::to_string(item.frame_id) +
                                  ": " + item.status.message());
        }
        return Status();
    }

    /**
     * Settles a batch in selection order: each modelled replica
     * executes its batch serially, so completion times (and the
     * trace) are deterministic. A faulted dispatch charges no
     * device seconds; the breaker hears about it and the record
     * keeps the attributable status.
     */
    void
    settle(ReplicaState &rep, double now_s, std::vector<BatchItem> &batch)
    {
        ++report.fleet.batches;
        report.fleet.batched_frames += batch.size();
        const double batch_start_s = now_s;
        now_s += config.batch_overhead_s;
        report.fleet.device_busy_s += config.batch_overhead_s;
        for (BatchItem &item : batch) {
            TenantState &state = *item.tenant;
            ServedFrame record;
            record.frame_id = item.frame_id;
            record.arrival_s = state.arrivalOf(item.frame_id);
            record.start_s = batch_start_s;
            if (item.faulted) {
                record.outcome = ServeOutcome::kFaulted;
                record.completion_s = now_s;
                record.fault_status = std::move(item.fault_status);
                ++state.report->stats.faulted;
                ++report.recovery.faulted_frames;
                state.breaker.onFailure(now_s);
            } else {
                now_s = serveItem(rep, item, record, now_s);
            }
            appendOutcome(state, std::move(record), rep.index);
            finishIfDone(state);
        }
        rep.clock_s = now_s;
    }

    /** Charges one encoded or cache-hit frame to the replica
     *  clock, the tenant's deficit and stats, the cache and the
     *  checkpoint schedule; returns the clock after it. */
    double
    serveItem(const ReplicaState &rep, BatchItem &item,
              ServedFrame &record, double now_s)
    {
        TenantState &state = *item.tenant;
        TenantStats &stats = state.report->stats;
        double cost_s = 0.0;
        if (item.hit) {
            record.outcome = ServeOutcome::kCacheHit;
            cost_s = config.cache_hit_cost_s;
            cache.recordSavings(
                std::max(item.hit->device_cost_s - cost_s, 0.0));
            record.bitstream = item.hit->bitstream;
            record.stats = item.hit->stats;
            ++stats.cache_hits;
        } else {
            record.outcome = ServeOutcome::kEncoded;
            const PipelineTiming timing =
                device_model.evaluate(item.encoded.profile);
            cost_s = effectiveEncodeLatency(timing, latency_config,
                                            item.frame_id)
                         .total_s;
            const double throttle =
                injector.costMultiplier(rep.index, now_s);
            if (throttle != 1.0)
                cost_s *= throttle;
            record.bitstream = std::move(item.encoded.bitstream);
            record.stats = item.encoded.stats;
            ++stats.encoded;
        }

        now_s += cost_s;
        record.cost_s = cost_s;
        record.completion_s = now_s;
        const double latency_s = record.completion_s - record.arrival_s;
        record.deadline_missed =
            state.budget_s > 0.0 &&
            latency_s > state.budget_s * (1.0 + kArrivalEps);

        state.deficit_s -= cost_s;
        stats.min_deficit_s =
            std::min(stats.min_deficit_s, state.deficit_s);
        stats.max_frame_cost_s = std::max(stats.max_frame_cost_s, cost_s);
        stats.device_s += cost_s;
        stats.latency_s.push_back(latency_s);
        ++stats.served;
        if (record.deadline_missed)
            ++stats.deadline_misses;
        report.fleet.device_busy_s += cost_s;

        state.breaker.onSuccess();
        if (state.recovering_since_s >= 0.0) {
            recovery_samples.push_back(record.completion_s -
                                       state.recovering_since_s);
            state.recovering_since_s = -1.0;
        }

        if (!item.hit && config.cache_enabled && item.have_snapshot) {
            CacheEntry entry;
            entry.bitstream = record.bitstream;
            entry.stats = record.stats;
            entry.state_after = std::move(item.state_after);
            entry.device_cost_s = cost_s;
            cache.insert(item.stream_key, std::move(entry));
        }

        const auto interval =
            static_cast<std::size_t>(config.checkpoint_interval_frames);
        if (interval > 0 && stats.served % interval == 0) {
            // Snapshot after this frame: failover restores here and
            // resumes with a forced keyframe. Charged like batch
            // overhead (clock + fleet, not the tenant).
            TenantCheckpoint checkpoint;
            checkpoint.state = state.encoder.snapshotState();
            checkpoint.stream_key = state.stream_key;
            checkpoint.served =
                static_cast<std::uint32_t>(state.next_frame);
            state.checkpoint = std::move(checkpoint);
            now_s += config.checkpoint_cost_s;
            report.fleet.device_busy_s += config.checkpoint_cost_s;
            ++stats.checkpoints;
            ++report.recovery.checkpoints;
        }
        return now_s;
    }

    /**
     * Crash failover: every tenant on the dead replica is
     * re-admitted to the survivors in deadline-class priority
     * order — interactive first, bulk last, so when capacity no
     * longer fits it is the bulk tenants that are shed.
     */
    void
    recover(ReplicaState &down, double at_s,
            const DeviceFaultEvent &event)
    {
        ++report.recovery.crashes;
        FailoverRecord record;
        record.replica = down.index;
        record.at_s = at_s;

        std::vector<TenantState *> victims;
        for (TenantState *state : down.tenants) {
            if (!state->done)
                victims.push_back(state);
        }
        down.tenants.clear();
        down.cursor = 0;
        down.unfinished = 0;
        down.admitted_utilization = 0.0;
        down.crashed = true;
        down.revive_at_s = event.duration_s > 0.0
                               ? at_s + event.duration_s
                               : std::numeric_limits<double>::infinity();

        std::stable_sort(
            victims.begin(), victims.end(),
            [](const TenantState *a, const TenantState *b) {
                return admissionBefore(*a->spec, a->input_index,
                                       *b->spec, b->input_index);
            });

        for (TenantState *victim : victims) {
            FailoverMove move;
            move.tenant = victim->spec->name;
            move.from_replica = down.index;
            move.resume_frame =
                static_cast<std::uint32_t>(victim->next_frame);
            const int best = leastLoadedFit(
                victim->report->estimated_utilization, down.index,
                at_s);
            if (best < 0)
                shed(*victim, down.index, at_s);
            else
                restoreOn(*victim,
                          replicas[static_cast<std::size_t>(best)],
                          at_s, move);
            record.moves.push_back(std::move(move));
        }
        report.failovers.push_back(std::move(record));
    }

    /** Nowhere left to run: shed the remaining frames, accounted
     *  one by one — degraded, never corrupt. */
    void
    shed(TenantState &victim, int from_replica, double at_s)
    {
        victim.report->rejection_reason =
            RejectionReason::kFailoverShed;
        for (; victim.next_frame < victim.spec->frames.size();
             ++victim.next_frame) {
            ServedFrame record;
            record.frame_id =
                static_cast<std::uint32_t>(victim.next_frame);
            record.outcome = ServeOutcome::kShed;
            record.arrival_s = victim.arrivalOf(victim.next_frame);
            record.start_s = at_s;
            record.completion_s = at_s;
            ++victim.report->stats.shed;
            appendOutcome(victim, std::move(record), from_replica);
        }
        victim.done = true;
        --unfinished;
        ++report.recovery.tenants_shed;
    }

    /** Moves a victim onto `target`: restore from its latest
     *  checkpoint (cold reset when none) and resume with a forced
     *  keyframe, so the stream stays decodable. The stream key is
     *  re-anchored so the cache never serves pre-crash lineage
     *  bytes. */
    void
    restoreOn(TenantState &victim, ReplicaState &target, double at_s,
              FailoverMove &move)
    {
        target.tenants.push_back(&victim);
        ++target.unfinished;
        target.admitted_utilization +=
            victim.report->estimated_utilization;
        victim.report->replica = target.index;

        if (victim.checkpoint.has_value()) {
            victim.encoder.restoreState(victim.checkpoint->state);
            victim.stream_key = chainStreamKey(
                victim.checkpoint->stream_key, kFailoverSalt);
            move.restored_from_checkpoint = true;
            move.checkpoint_frames = victim.checkpoint->served;
        } else {
            victim.encoder.reset();
            victim.stream_key = chainStreamKey(
                codecConfigDigest(victim.spec->codec), kFailoverSalt);
        }
        victim.encoder.forceKeyframe();
        victim.deficit_s = 0.0;
        victim.resume_at_s = at_s;
        victim.recovering_since_s = at_s;
        ++report.recovery.failovers;
        move.to_replica = target.index;
    }

    /** Records one frame's outcome: the fleet trace entry, then
     *  the tenant's frame record. */
    void
    appendOutcome(TenantState &state, ServedFrame record, int replica)
    {
        ServeTraceEntry entry;
        entry.tenant = state.spec->name;
        entry.frame_id = record.frame_id;
        entry.outcome = record.outcome;
        entry.deadline_missed = record.deadline_missed;
        entry.replica = replica;
        report.trace.push_back(std::move(entry));
        state.report->frames.push_back(std::move(record));
    }

    void
    finishIfDone(TenantState &state)
    {
        if (state.done || state.next_frame < state.spec->frames.size())
            return;
        state.done = true;
        --unfinished;
        --replicas[static_cast<std::size_t>(state.report->replica)]
              .unfinished;
    }

    ServeReport
    finish()
    {
        for (const ReplicaState &replica : replicas)
            report.fleet.makespan_s =
                std::max(report.fleet.makespan_s, replica.clock_s);
        report.cache = cache.stats();

        for (const TenantState &state : states)
            report.recovery.breaker_trips += state.breaker.trips();
        if (!recovery_samples.empty()) {
            double sum = 0.0;
            for (double sample : recovery_samples) {
                sum += sample;
                report.recovery.worst_recovery_s =
                    std::max(report.recovery.worst_recovery_s, sample);
            }
            report.recovery.mttr_s =
                sum / static_cast<double>(recovery_samples.size());
        }

        std::vector<double> shares;
        shares.reserve(states.size());
        for (const TenantState &state : states)
            shares.push_back(state.report->stats.device_s /
                             state.spec->weight);
        report.fairness_index = jainFairnessIndex(shares);

        // Served/dropped frames were appended as scheduled;
        // per-tenant frame order is already monotonic by
        // construction.
        return std::move(report);
    }
};

}  // namespace

ServeScheduler::ServeScheduler(ServeConfig config,
                               std::vector<TenantSpec> tenants)
    : config_(std::move(config)), tenants_(std::move(tenants))
{
}

Expected<ServeReport>
ServeScheduler::run()
{
    // Every pool task of a batch is waited for before anything can
    // throw past it, so an exception unwinds no live task's state.
    try {
        return runImpl();
    } catch (const std::bad_alloc &) {
        return resourceExhausted(
            "ServeScheduler::run: allocation failed");
    }
}

Expected<ServeReport>
ServeScheduler::runImpl()
{
    ScopedTrace trace("serve.run");
    if (Status valid = validateServe(config_, tenants_); !valid.isOk())
        return valid;

    FleetRun fleet(config_, tenants_);
    if (Status admitted = fleet.admit(); !admitted.isOk())
        return admitted;
    while (ReplicaState *rep = fleet.pickReplica()) {
        if (Status round = fleet.round(*rep); !round.isOk())
            return round;
    }
    return fleet.finish();
}

}  // namespace serve
}  // namespace edgepcc
