#include "gic/failure_model.h"

#include <cmath>
#include <stdexcept>

#include "geo/regions.h"
#include "gic/induction.h"
#include "util/strings.h"

namespace solarnet::gic {

namespace {

void validate_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string(what) +
                                ": probability outside [0, 1]");
  }
}

std::size_t band_index(double abs_lat) noexcept {
  if (abs_lat > 60.0) return 0;
  if (abs_lat > 40.0) return 1;
  return 2;
}

}  // namespace

UniformFailureModel::UniformFailureModel(double p) : p_(p) {
  validate_probability(p, "UniformFailureModel");
}

std::string UniformFailureModel::name() const {
  return "uniform(p=" + util::format_fixed(p_, 4) + ")";
}

LatitudeBandFailureModel::LatitudeBandFailureModel(std::string label,
                                                   BandProbabilities probs)
    : label_(std::move(label)), probs_(probs) {
  for (double p : probs_) validate_probability(p, "LatitudeBandFailureModel");
}

double LatitudeBandFailureModel::failure_probability(
    const RepeaterContext& ctx) const {
  return probs_[band_index(ctx.cable_max_abs_lat_deg)];
}

std::string LatitudeBandFailureModel::name() const { return label_; }

LatitudeBandFailureModel LatitudeBandFailureModel::s1() {
  return {"S1(high)[1,0.1,0.01]", {1.0, 0.1, 0.01}};
}

LatitudeBandFailureModel LatitudeBandFailureModel::s2() {
  return {"S2(low)[0.1,0.01,0.001]", {0.1, 0.01, 0.001}};
}

PerRepeaterBandModel::PerRepeaterBandModel(std::string label,
                                           BandProbabilities probs)
    : label_(std::move(label)), probs_(probs) {
  for (double p : probs_) validate_probability(p, "PerRepeaterBandModel");
}

double PerRepeaterBandModel::failure_probability(
    const RepeaterContext& ctx) const {
  return probs_[band_index(ctx.location.abs_lat())];
}

std::string PerRepeaterBandModel::name() const { return label_; }

FieldDrivenFailureModel::FieldDrivenFailureModel(GeoelectricFieldModel field,
                                                 Params params)
    : field_(std::move(field)), params_(params) {
  if (params_.overload_at_half <= 0.0 || params_.steepness <= 0.0) {
    throw std::invalid_argument("FieldDrivenFailureModel: invalid params");
  }
}

double FieldDrivenFailureModel::failure_probability(
    const RepeaterContext& ctx) const {
  // Local GIC estimate for a uniformly-induced long line: E / R amperes
  // (potential grows with length, resistance grows equally, so the section
  // current is set by the local field over the per-km resistance).
  const double e = field_.field_v_per_km(ctx.location);
  const double gic = e / kFeedResistanceOhmPerKm;
  const double overload = gic / kOperatingCurrentAmp;
  if (overload <= 0.0) return 0.0;
  const double x = std::log(overload / params_.overload_at_half);
  return 1.0 / (1.0 + std::exp(-params_.steepness * x));
}

std::string FieldDrivenFailureModel::name() const {
  return "field-driven(" + field_.storm().name + ")";
}

std::unique_ptr<RepeaterFailureModel> make_uniform(double p) {
  return std::make_unique<UniformFailureModel>(p);
}

std::unique_ptr<RepeaterFailureModel> make_s1() {
  return std::make_unique<LatitudeBandFailureModel>(
      LatitudeBandFailureModel::s1());
}

std::unique_ptr<RepeaterFailureModel> make_s2() {
  return std::make_unique<LatitudeBandFailureModel>(
      LatitudeBandFailureModel::s2());
}

}  // namespace solarnet::gic
