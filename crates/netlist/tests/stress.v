// Every process-program lowering shape in one module: nested concat
// targets, constant part selects, dynamic bit and array-word writes,
// case dispatch with a default arm, if/else chains, mixed blocking and
// non-blocking regions. Shared by opt_equivalence.rs and
// yosys_roundtrip.rs.
module stress(input clk, input rst_n, input [3:0] idx,
  input [7:0] d, output reg [7:0] a, output reg [7:0] b, output reg c,
  output reg [3:0] lo, output reg [3:0] hi, output [8:0] s);
reg [7:0] mem [0:7];
assign s = a + b;
always @(*) begin
{c, {hi, lo}} = {1'b0, d} + 9'd3;
end
always @(posedge clk or negedge rst_n) begin
if (!rst_n) begin
a <= 8'd0;
b <= 8'd0;
end
else begin
case (idx[1:0])
2'b00: a <= a + 8'd1;
2'b01: begin
a[3:0] <= d[7:4];
b[idx[2]] <= d[0];
end
2'b10: mem[idx[2:0]] <= d;
default: b <= mem[idx[2:0]] ^ a;
endcase
end
end
endmodule
