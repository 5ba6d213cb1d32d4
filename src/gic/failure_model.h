// Repeater failure models. The paper stresses that no validated physical
// model of GIC-induced repeater failure exists, and therefore sweeps a
// broad family of probabilistic models; "more sophisticated models ... can
// be plugged into our analyses when they become available". That is this
// interface:
//
//   * UniformFailureModel       — §4.3.2: every repeater fails i.i.d. with
//                                 probability p.
//   * LatitudeBandFailureModel  — §4.3.3: probability keyed on the cable's
//                                 highest-|latitude| endpoint, three bands
//                                 split at 40/60 deg. Presets s1()/s2().
//   * PerRepeaterBandModel      — ablation: same band probabilities but
//                                 keyed on each repeater's own latitude.
//   * FieldDrivenFailureModel   — extension: logistic dose-response on the
//                                 local GIC overload factor computed from a
//                                 geoelectric field model.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "geo/coords.h"
#include "gic/efield.h"
#include "topology/repeater.h"

namespace solarnet::gic {

// Context handed to the model for one repeater: its location and its
// cable's highest endpoint |latitude|. It lives in topology so that the
// network's shared repeater layout holds these directly.
using RepeaterContext = topo::RepeaterContext;

class RepeaterFailureModel {
 public:
  virtual ~RepeaterFailureModel() = default;
  // Probability in [0, 1] that this repeater is destroyed by the event.
  virtual double failure_probability(const RepeaterContext& ctx) const = 0;
  virtual std::string name() const = 0;
};

class UniformFailureModel final : public RepeaterFailureModel {
 public:
  // Throws std::invalid_argument if p is outside [0, 1].
  explicit UniformFailureModel(double p);
  double failure_probability(const RepeaterContext&) const override {
    return p_;
  }
  std::string name() const override;

 private:
  double p_;
};

// Band probabilities ordered {high |lat|>60, mid 40<|lat|<=60, low <=40}.
using BandProbabilities = std::array<double, 3>;

class LatitudeBandFailureModel final : public RepeaterFailureModel {
 public:
  LatitudeBandFailureModel(std::string label, BandProbabilities probs);
  double failure_probability(const RepeaterContext& ctx) const override;
  std::string name() const override;

  // The paper's two states: S1 (high) = [1, 0.1, 0.01],
  // S2 (low) = [0.1, 0.01, 0.001].
  static LatitudeBandFailureModel s1();
  static LatitudeBandFailureModel s2();

 private:
  std::string label_;
  BandProbabilities probs_;
};

// Ablation variant: the band is chosen from the repeater's own latitude
// instead of the cable's highest endpoint.
class PerRepeaterBandModel final : public RepeaterFailureModel {
 public:
  PerRepeaterBandModel(std::string label, BandProbabilities probs);
  double failure_probability(const RepeaterContext& ctx) const override;
  std::string name() const override;

 private:
  std::string label_;
  BandProbabilities probs_;
};

class FieldDrivenFailureModel final : public RepeaterFailureModel {
 public:
  struct Params {
    // Overload factor (GIC / operating current) at which failure
    // probability reaches 50%. The paper notes storm GIC can reach ~100x
    // the 1.1 A operating point; repeaters are engineered with margin, so
    // the default midpoint sits well above nominal.
    double overload_at_half = 25.0;
    // Logistic steepness (in units of log-overload). Steep by default so
    // the latitude structure survives cable-length aggregation: a long
    // cable dies when ANY repeater dies, so a shallow curve would flatten
    // every long cable to "dead" regardless of latitude.
    double steepness = 3.0;
  };

  explicit FieldDrivenFailureModel(GeoelectricFieldModel field)
      : FieldDrivenFailureModel(std::move(field), Params{}) {}
  FieldDrivenFailureModel(GeoelectricFieldModel field, Params params);
  double failure_probability(const RepeaterContext& ctx) const override;
  std::string name() const override;

 private:
  GeoelectricFieldModel field_;
  Params params_;
};

// Convenience owners used by benches/examples.
std::unique_ptr<RepeaterFailureModel> make_uniform(double p);
std::unique_ptr<RepeaterFailureModel> make_s1();
std::unique_ptr<RepeaterFailureModel> make_s2();

}  // namespace solarnet::gic
