#include "detectors/arm.h"

#include "core/faultinject.h"
#include "detectors/divergence.h"
#include "detectors/serialize.h"
#include "graph/graph_ops.h"
#include "obs/profile.h"
#include "tensor/optimizer.h"

namespace vgod::detectors {
namespace {

Tensor PrepareAttributes(const AttributedGraph& graph, bool row_normalize) {
  VGOD_CHECK(graph.has_attributes()) << "ARM requires node attributes";
  return row_normalize
             ? graph_ops::RowNormalizeAttributes(graph.attributes())
             : graph.attributes();
}

}  // namespace

Arm::Arm(ArmConfig config) : config_(std::move(config)) {}

Variable Arm::Reconstruct(std::shared_ptr<const AttributedGraph> graph,
                          const Tensor& attributes) const {
  VGOD_CHECK(in_transform_.has_value()) << "Fit() before Score()";
  Variable x = Variable::Constant(attributes);
  // Eq. 14: Z^(0) = row-normalized linear transform.
  Variable z = ag::RowL2Normalize(in_transform_->Forward(x));
  // Eq. 15: L GNN layers absorbing neighbor messages.
  for (const auto& layer : layers_) {
    z = ag::Relu(layer->Forward(graph, z));
  }
  // Eq. 16: retransform to attribute space.
  return out_transform_->Forward(z);
}

std::vector<Variable> Arm::Parameters() const {
  std::vector<Variable> params = in_transform_->Parameters();
  for (const auto& layer : layers_) {
    for (Variable& p : layer->Parameters()) params.push_back(std::move(p));
  }
  for (Variable& p : out_transform_->Parameters()) {
    params.push_back(std::move(p));
  }
  return params;
}

void Arm::BuildModules(int input_dim, Rng* rng) {
  in_transform_.emplace(input_dim, config_.hidden_dim, rng);
  layers_.clear();
  for (int l = 0; l < config_.num_layers; ++l) {
    layers_.push_back(
        gnn::MakeConv(config_.gnn, config_.hidden_dim, config_.hidden_dim,
                      rng));
  }
  out_transform_.emplace(config_.hidden_dim, input_dim, rng);
}

Status Arm::Fit(const AttributedGraph& graph) {
  VGOD_PROFILE_MEMORY_PHASE("detector/arm_fit");
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("ARM requires node attributes");
  }
  obs::TrainingRun run("ARM", config_.epochs, config_.monitor,
                       &train_stats_.epoch_records);
  Rng rng(config_.seed);
  const Tensor attributes =
      PrepareAttributes(graph, config_.row_normalize_attributes);
  BuildModules(attributes.cols(), &rng);

  // GCN/GAT aggregate over the given neighbor lists; self loops keep each
  // node's own signal in its reconstruction.
  auto message_graph =
      std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
  Variable target = Variable::Constant(attributes);

  Adam optimizer(Parameters(), config_.lr);
  DivergenceGuard guard(Parameters());
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    Variable reconstructed = Reconstruct(message_graph, attributes);
    // Eq. 17-18: minimize the mean per-node squared error.
    Variable loss =
        ag::MeanAll(ag::RowSquaredDistance(reconstructed, target));
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    // "arm.loss=nan" (faultinject.h) simulates a diverged fit on demand.
    const double epoch_loss =
        faults::MaybeNan("arm.loss", loss.value().ScalarValue());
    const obs::EpochRecord record =
        run.EndEpoch(epoch + 1, epoch_loss, optimizer.GradNorm());
    const Status healthy = guard.Check(record);
    if (!healthy.ok()) {
      // Parameters are already rolled back to the last finite epoch.
      train_stats_.epochs = guard.last_good_epoch();
      train_stats_.train_seconds = run.TotalSeconds();
      return healthy;
    }
  }
  train_stats_.epochs = config_.epochs;
  train_stats_.train_seconds = run.TotalSeconds();
  return Status::Ok();
}

DetectorOutput Arm::Score(const AttributedGraph& graph) const {
  VGOD_PROFILE_SCOPE("detector/arm_score");
  NoGradGuard no_grad;
  const Tensor attributes =
      PrepareAttributes(graph, config_.row_normalize_attributes);
  auto message_graph =
      std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
  Variable reconstructed = Reconstruct(message_graph, attributes);
  Variable errors = ag::RowSquaredDistance(reconstructed,
                                           Variable::Constant(attributes));
  DetectorOutput out;
  out.score.resize(graph.num_nodes());
  for (int i = 0; i < graph.num_nodes(); ++i) {
    out.score[i] = errors.value().At(i, 0);
  }
  out.contextual_score = out.score;
  return out;
}

Status Arm::Save(const std::string& path) const {
  if (!in_transform_.has_value()) {
    return Status::FailedPrecondition("Fit() before Save()");
  }
  return SaveParameterList(Parameters(), path);
}

Status Arm::Load(const std::string& path) {
  Result<std::vector<Tensor>> tensors = LoadParameterList(path);
  if (!tensors.ok()) return tensors.status();
  return RestoreParameters(tensors.value());
}

Status Arm::RestoreParameters(const std::vector<Tensor>& tensors) {
  if (tensors.empty()) {
    return Status::InvalidArgument("ARM: empty parameter list");
  }
  // The first tensor is the input transform's d x hidden weight.
  const Tensor& weight = tensors[0];
  if (weight.cols() != config_.hidden_dim) {
    return Status::InvalidArgument(
        "stored hidden dim " + std::to_string(weight.cols()) +
        " != configured " + std::to_string(config_.hidden_dim));
  }
  Rng rng(config_.seed);
  BuildModules(weight.rows(), &rng);
  std::vector<Variable> params = Parameters();
  return AssignParameters(tensors, &params);
}

Result<ModelBundle> Arm::ExportBundle() const {
  if (!in_transform_.has_value()) {
    return Status::FailedPrecondition("Fit() before ExportBundle()");
  }
  ModelBundle bundle;
  bundle.detector = name();
  obs::JsonValue::Object config;
  config["hidden_dim"] =
      obs::JsonValue(static_cast<int64_t>(config_.hidden_dim));
  config["num_layers"] =
      obs::JsonValue(static_cast<int64_t>(config_.num_layers));
  config["gnn"] = obs::JsonValue(std::string(gnn::GnnKindName(config_.gnn)));
  config["row_normalize_attributes"] =
      obs::JsonValue(config_.row_normalize_attributes);
  bundle.config = obs::JsonValue(std::move(config));
  for (const Variable& param : Parameters()) {
    bundle.params.push_back(param.value().Clone());
  }
  return bundle;
}

Status Arm::RestoreFromBundle(const ModelBundle& bundle) {
  if (!bundle.detector.empty() && bundle.detector != name()) {
    return Status::InvalidArgument("bundle is for detector '" +
                                   bundle.detector + "', not " + name());
  }
  if (bundle.config.is_object()) {
    // Untrusted config: range-check before the double -> int casts (UB out
    // of range) and before BuildModules allocates num_layers hidden^2
    // tensors from these values.
    const double hidden =
        ConfigNumber(bundle.config, "hidden_dim", config_.hidden_dim);
    if (!(hidden >= 1.0 && hidden <= 65536.0)) {
      return Status::InvalidArgument(
          "bundle hidden_dim out of range [1, 65536]");
    }
    const double layers =
        ConfigNumber(bundle.config, "num_layers", config_.num_layers);
    if (!(layers >= 0.0 && layers <= 64.0)) {
      return Status::InvalidArgument(
          "bundle num_layers out of range [0, 64]");
    }
    config_.hidden_dim = static_cast<int>(hidden);
    config_.num_layers = static_cast<int>(layers);
    config_.row_normalize_attributes =
        ConfigBool(bundle.config, "row_normalize_attributes",
                   config_.row_normalize_attributes);
    const std::string gnn_name =
        ConfigString(bundle.config, "gnn", gnn::GnnKindName(config_.gnn));
    bool known = false;
    for (gnn::GnnKind kind : {gnn::GnnKind::kGcn, gnn::GnnKind::kGat,
                              gnn::GnnKind::kGin, gnn::GnnKind::kSage}) {
      if (gnn_name == gnn::GnnKindName(kind)) {
        config_.gnn = kind;
        known = true;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown GNN backbone in bundle: " +
                                     gnn_name);
    }
  }
  return RestoreParameters(bundle.params);
}

}  // namespace vgod::detectors
