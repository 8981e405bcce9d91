#include "src/plan/explain.h"

namespace impeller {
namespace plan {
namespace {

bool IsEgress(const LoweredPlan& lowered, const std::string& stream) {
  const StreamSpec* spec = lowered.query.FindStream(stream);
  return spec != nullptr && spec->egress;
}

std::string StreamAnnotation(const LoweredPlan& lowered,
                             const std::string& stream) {
  const StreamSpec* spec = lowered.query.FindStream(stream);
  if (spec == nullptr) {
    return "";
  }
  if (spec->egress) {
    return " (egress)";
  }
  return " [" + std::to_string(spec->num_substreams) + " substream(s)]";
}

}  // namespace

std::string ExplainText(const LoweredPlan& lowered) {
  std::string out;
  out += "== plan '" + lowered.query.name + "' ==\n";
  out += "ingress:";
  for (const auto& stream : lowered.ingress) {
    out += " " + stream;
  }
  out += "\n";
  out += "stages: " + std::to_string(lowered.stages.size()) +
         ", log hops eliminated by fusion: " +
         std::to_string(lowered.hops_eliminated()) + "\n";

  for (const auto& stage : lowered.stages) {
    out += "\nstage " + stage.name + " [" + std::to_string(stage.tasks) +
           " task(s), " + (stage.stateful ? "stateful" : "stateless") + "]\n";
    for (const auto& input : stage.inputs) {
      out += "  <- " + input + StreamAnnotation(lowered, input) + "\n";
    }
    out += "  ops:";
    for (size_t i = 0; i < stage.operators.size(); ++i) {
      out += (i == 0 ? " " : " -> ") + stage.operators[i];
    }
    out += "\n";
    for (const auto& output : stage.outputs) {
      out += "  -> " + output + StreamAnnotation(lowered, output) + "\n";
    }
  }

  if (!lowered.fused_edges.empty()) {
    out += "\nfused edges (each deletes one log hop):\n";
    for (const auto& [from, to] : lowered.fused_edges) {
      out += "  " + from + " => " + to + "\n";
    }
  }
  if (!lowered.pass_log.empty()) {
    out += "\npass log:\n  " + lowered.pass_log + "\n";
  }
  return out;
}

std::string ExplainDot(const LoweredPlan& lowered) {
  std::string out;
  out += "digraph \"" + lowered.query.name + "\" {\n";
  out += "  rankdir=LR;\n";
  out += "  node [shape=box, fontname=\"monospace\"];\n";
  for (const auto& stream : lowered.ingress) {
    out += "  \"in:" + stream + "\" [shape=ellipse, label=\"" + stream +
           "\\n(ingress)\"];\n";
  }
  for (const auto& stage : lowered.stages) {
    std::string label = stage.name + "\\n" + std::to_string(stage.tasks) +
                        " task(s)" + (stage.stateful ? ", stateful" : "");
    for (const auto& op : stage.operators) {
      label += "\\n" + op;
    }
    out += "  \"stage:" + stage.name + "\" [label=\"" + label + "\"];\n";
  }
  // Edges: every stage input comes from either an ingress stream or the
  // stage recorded as the stream's producer.
  for (const auto& stage : lowered.stages) {
    for (const auto& input : stage.inputs) {
      const StreamSpec* spec = lowered.query.FindStream(input);
      std::string from = (spec != nullptr && spec->external)
                             ? "in:" + input
                             : "stage:" + (spec != nullptr
                                               ? spec->producer_stage
                                               : std::string("?"));
      out += "  \"" + from + "\" -> \"stage:" + stage.name + "\" [label=\"" +
             input + "\"];\n";
    }
    for (const auto& output : stage.outputs) {
      if (IsEgress(lowered, output)) {
        out += "  \"out:" + output +
               "\" [shape=ellipse, style=dashed, label=\"" + output +
               "\\n(egress)\"];\n";
        out += "  \"stage:" + stage.name + "\" -> \"out:" + output + "\";\n";
      }
    }
  }
  if (lowered.hops_eliminated() > 0) {
    out += "  label=\"" + std::to_string(lowered.hops_eliminated()) +
           " log hop(s) eliminated by fusion\";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace plan
}  // namespace impeller
