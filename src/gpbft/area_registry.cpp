#include "gpbft/area_registry.hpp"

namespace gpbft::gpbft {

bool AreaRegistry::claim_is_truthful(NodeId device, const geo::GeoPoint& claim,
                                     double tolerance_meters) const {
  const auto actual = position_of(device);
  if (!actual) return false;  // no such physical device: a fabricated identity
  return geo::haversine_meters(*actual, claim) <= tolerance_meters;
}

const char* verdict_name(ReportVerdict verdict) {
  switch (verdict) {
    case ReportVerdict::Accepted: return "accepted";
    case ReportVerdict::OutsideArea: return "outside-area";
    case ReportVerdict::UntruthfulClaim: return "untruthful-claim";
    case ReportVerdict::DuplicateLocation: return "duplicate-location";
  }
  return "?";
}

SybilFilter::SybilFilter(std::string_view area_prefix, const AreaRegistry* registry)
    : area_(geo::GeoCell::parse(area_prefix)), registry_(registry) {}

ReportVerdict SybilFilter::check(NodeId device, const geo::GeoPoint& claim, geo::GeoCell cell,
                                 TimePoint reported_at) {
  if (!area_ || !cell.within(*area_)) {
    flagged_.insert(device);
    return ReportVerdict::OutsideArea;
  }

  if (registry_ != nullptr && !registry_->claim_is_truthful(device, claim)) {
    flagged_.insert(device);
    return ReportVerdict::UntruthfulClaim;
  }

  // Two *different* nodes claiming one cell at the same instant cannot both
  // be real (§IV-A1); flag both, since an honest observer cannot tell which
  // of the two actually occupies the spot.
  const auto [last, first_claim] = last_claim_.try_emplace(cell.word());
  if (!first_claim && last->device != device && last->at == reported_at) {
    flagged_.insert(device);
    flagged_.insert(last->device);
    return ReportVerdict::DuplicateLocation;
  }
  *last = CellClaim{device, reported_at};
  return ReportVerdict::Accepted;
}

}  // namespace gpbft::gpbft
