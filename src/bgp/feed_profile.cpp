#include "bgp/feed_profile.hpp"

#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/stopwatch.hpp"

namespace quicksand::bgp::feed {

UpdateStream ProfiledStream(std::string name, UpdateStream stream) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  if (!recorder.enabled()) return stream;
  obs::FlightRecorder::Stage* cell = &recorder.GetStage(name);
  auto inner = std::make_shared<UpdateStream>(std::move(stream));
  auto table = inner->paths();
  return UpdateStream(std::move(table),
                      [inner, cell](std::vector<UpdateRec>& out) {
                        const obs::Stopwatch watch;
                        const bool ok = inner->Next(out);
                        cell->AddWall(watch.ElapsedUs());
                        if (ok) {
                          cell->AddBatch(out.size(), out.size() * sizeof(UpdateRec));
                        }
                        return ok;
                      });
}

UpdateStream TalliedStream(UpdateStream stream, std::shared_ptr<StreamTally> tally) {
  auto inner = std::make_shared<UpdateStream>(std::move(stream));
  auto table = inner->paths();
  return UpdateStream(
      std::move(table),
      [inner, tally = std::move(tally)](std::vector<UpdateRec>& out) {
        const obs::Stopwatch watch;
        const bool ok = inner->Next(out);
        tally->wall_us.fetch_add(watch.ElapsedUs(), std::memory_order_relaxed);
        if (ok) {
          tally->batches.fetch_add(1, std::memory_order_relaxed);
          tally->items.fetch_add(out.size(), std::memory_order_relaxed);
          const auto size = static_cast<std::uint64_t>(out.size());
          std::uint64_t peak = tally->peak_batch.load(std::memory_order_relaxed);
          while (size > peak && !tally->peak_batch.compare_exchange_weak(
                                    peak, size, std::memory_order_relaxed)) {
          }
        }
        return ok;
      });
}

void RecordSinkStage(const std::string& name, const StreamTally& tally,
                     std::int64_t wall_us) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  if (!recorder.enabled()) return;
  obs::FlightRecorder::Stage& cell = recorder.GetStage(name);
  const std::uint64_t items = tally.items.load(std::memory_order_relaxed);
  cell.AddWall(wall_us);
  cell.AddUpstream(tally.wall_us.load(std::memory_order_relaxed));
  cell.AddCounts(tally.batches.load(std::memory_order_relaxed), items,
                 items * sizeof(UpdateRec),
                 tally.peak_batch.load(std::memory_order_relaxed));
}

}  // namespace quicksand::bgp::feed
