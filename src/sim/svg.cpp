#include "sim/svg.hpp"

#include <algorithm>
#include <fstream>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "sim/assignment.hpp"

namespace sharedres::sim {

namespace {

/// Golden-angle hue walk: maximally distinct colors for consecutive ids.
std::string job_color(std::size_t j) {
  const double hue = std::fmod(static_cast<double>(j) * 137.50776, 360.0);
  std::ostringstream os;
  os << "hsl(" << static_cast<int>(hue) << ",62%,58%)";
  return os.str();
}

}  // namespace

std::string render_svg(const core::Instance& instance,
                       const core::Schedule& schedule,
                       const SvgOptions& options) {
  const MachineAssignment assignment =
      assign_machines(instance.size(), schedule);
  const auto makespan = static_cast<int>(schedule.makespan());
  const int machines = std::max(1, assignment.machines_used);
  const int margin = 30;
  const int width = margin * 2 + makespan * options.cell_width;
  const int gantt_height = machines * options.lane_height;
  const int height = margin * 2 + gantt_height + 12 + options.util_height;

  std::ostringstream svg;
  svg << "<svg xmlns='http://www.w3.org/2000/svg' width='" << width
      << "' height='" << height << "' font-family='monospace' font-size='10'>\n";
  svg << "<rect width='100%' height='100%' fill='white'/>\n";

  // Machine lanes and job bars.
  for (int lane = 0; lane < machines; ++lane) {
    const int y = margin + lane * options.lane_height;
    svg << "<text x='4' y='" << y + options.lane_height / 2 + 3 << "'>M"
        << lane << "</text>\n";
    svg << "<line x1='" << margin << "' y1='" << y + options.lane_height
        << "' x2='" << width - margin << "' y2='" << y + options.lane_height
        << "' stroke='#ddd'/>\n";
  }
  for (core::JobId j = 0; j < instance.size(); ++j) {
    if (assignment.machine[j] < 0) continue;
    const int lane = assignment.machine[j];
    const auto start = static_cast<int>(assignment.start[j]);
    const auto finish = static_cast<int>(assignment.finish[j]);
    const int x = margin + (start - 1) * options.cell_width;
    const int w = (finish - start + 1) * options.cell_width;
    const int y = margin + lane * options.lane_height + 2;
    svg << "<rect x='" << x << "' y='" << y << "' width='" << w
        << "' height='" << options.lane_height - 4 << "' rx='2' fill='"
        << job_color(j) << "'><title>job " << j << ": steps " << start
        << "-" << finish << "</title></rect>\n";
    if (options.show_labels && w >= 3 * options.cell_width / 2) {
      svg << "<text x='" << x + 3 << "' y='"
          << y + options.lane_height / 2 + 1 << "' fill='white'>j" << j
          << "</text>\n";
    }
  }

  // Utilization strip.
  const int util_y = margin + gantt_height + 12;
  svg << "<text x='4' y='" << util_y + options.util_height / 2
      << "'>res</text>\n";
  core::Time t = 1;
  for (const core::BlockView block : schedule.blocks()) {
    core::Res used = 0;
    for (const core::Assignment& a : block.assignments) used += a.share;
    const double frac = static_cast<double>(used) /
                        static_cast<double>(instance.capacity());
    const int bar = std::max(
        1, static_cast<int>(frac * static_cast<double>(options.util_height)));
    const int x = margin + static_cast<int>(t - 1) * options.cell_width;
    const int w = static_cast<int>(block.length) * options.cell_width;
    svg << "<rect x='" << x << "' y='" << util_y + options.util_height - bar
        << "' width='" << w << "' height='" << bar
        << "' fill='#5b8dd6'><title>steps " << t << "-"
        << t + block.length - 1 << ": " << frac * 100.0
        << "% used</title></rect>\n";
    t += block.length;
  }
  svg << "<line x1='" << margin << "' y1='" << util_y + options.util_height
      << "' x2='" << width - margin << "' y2='"
      << util_y + options.util_height << "' stroke='#888'/>\n";

  // Time axis ticks every 5 steps.
  for (int tick = 0; tick <= makespan; tick += 5) {
    const int x = margin + tick * options.cell_width;
    svg << "<text x='" << x << "' y='" << height - 8 << "' fill='#666'>"
        << tick << "</text>\n";
  }
  svg << "</svg>\n";
  return svg.str();
}

void save_svg(const std::string& path, const core::Instance& instance,
              const core::Schedule& schedule, const SvgOptions& options) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  os << render_svg(instance, schedule, options);
}

}  // namespace sharedres::sim
