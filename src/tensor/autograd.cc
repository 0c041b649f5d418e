#include "tensor/autograd.h"

#include <unordered_set>

#include "obs/profile.h"
#include "tensor/kernels.h"

namespace vgod {
namespace {

// Per-thread so the serving worker pool can hold NoGradGuard on several
// threads at once without racing (and without disabling grad for a
// training thread in the same process).
thread_local bool g_grad_enabled = true;

}  // namespace

namespace internal {

void AutogradNode::AccumulateGrad(const Tensor& g) {
  if (!requires_grad) return;
  VGOD_PROFILE_SCOPE("autograd/accumulate_grad");
  VGOD_CHECK(g.SameShape(value))
      << "gradient shape " << g.ShapeString() << " vs value "
      << value.ShapeString() << " in op " << op_name;
  if (!grad.defined()) {
    grad = g.Clone();
  } else {
    kernels::AddInPlace(&grad, g);
  }
}

}  // namespace internal

Variable Variable::Parameter(Tensor value) {
  auto node = std::make_shared<internal::AutogradNode>();
  node->value = std::move(value);
  node->requires_grad = true;
  node->is_leaf = true;
  node->op_name = "parameter";
  return Variable(std::move(node));
}

Variable Variable::Constant(Tensor value) {
  auto node = std::make_shared<internal::AutogradNode>();
  node->value = std::move(value);
  node->requires_grad = false;
  node->is_leaf = true;
  node->op_name = "constant";
  return Variable(std::move(node));
}

Variable Variable::FromOp(
    Tensor value, std::vector<Variable> inputs,
    std::function<void(internal::AutogradNode&)> backward_fn,
    const char* op_name) {
  auto node = std::make_shared<internal::AutogradNode>();
  node->value = std::move(value);
  node->op_name = op_name;
  node->is_leaf = false;
  bool any_grad = false;
  for (const Variable& input : inputs) {
    VGOD_CHECK(input.defined()) << "undefined input to op " << op_name;
    any_grad = any_grad || input.requires_grad();
  }
  if (any_grad && NoGradGuard::GradEnabled()) {
    node->requires_grad = true;
    node->inputs.reserve(inputs.size());
    for (const Variable& input : inputs) node->inputs.push_back(input.shared_node());
    node->backward_fn = std::move(backward_fn);
  }
  return Variable(std::move(node));
}

Tensor& Variable::grad() {
  VGOD_CHECK(defined());
  if (!node_->grad.defined()) {
    node_->grad = Tensor::Zeros(node_->value.rows(), node_->value.cols());
  }
  return node_->grad;
}

void Variable::ZeroGrad() {
  if (node_ && node_->grad.defined()) node_->grad.Fill(0.0f);
}

void Variable::SetValue(const Tensor& value) {
  VGOD_CHECK(defined());
  node_->value.CopyFrom(value);
}

namespace {

// Iterative post-order DFS producing a topological order (inputs before
// consumers). Recursion would overflow the stack on deep graphs
// (hundreds of training epochs chain thousands of nodes in tests).
void TopologicalOrder(internal::AutogradNode* root,
                      std::vector<internal::AutogradNode*>* order) {
  std::unordered_set<internal::AutogradNode*> visited;
  std::vector<std::pair<internal::AutogradNode*, size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root);
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->inputs.size()) {
      internal::AutogradNode* child = node->inputs[next_child++].get();
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Variable::Backward() const {
  VGOD_CHECK(defined());
  VGOD_CHECK(node_->value.IsScalar())
      << "Backward() requires a scalar loss, got "
      << node_->value.ShapeString();
  VGOD_CHECK(node_->requires_grad)
      << "Backward() on a graph with no trainable parameters";
  // Covers the tape walk and the closures' own loops; the kernels and
  // AccumulateGrad calls inside them nest below as their own scopes.
  VGOD_PROFILE_SCOPE("autograd/backward");

  std::vector<internal::AutogradNode*> order;
  TopologicalOrder(node_.get(), &order);

  node_->AccumulateGrad(Tensor::Ones(1, 1));
  // Reverse topological order: every node's grad is complete before its
  // backward_fn pushes it into the inputs.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::AutogradNode* node = *it;
    if (node->backward_fn && node->grad.defined()) {
      node->backward_fn(*node);
    }
  }
}

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool NoGradGuard::GradEnabled() { return g_grad_enabled; }

}  // namespace vgod
